"""Constant-rank certification, kernels, horizontality, preservation, and the
full deformation pipeline on the bundled families."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracdeform import linalg, presymplectic
from diracdeform.dirac import NonHorizontalError
from diracdeform.exterior import (
    Chart,
    DifferentialForm,
    MultivectorField,
    de_rham,
    dx,
    partial,
    to_json,
)
from diracdeform.koszul import (
    DEFAULT_GRID_COORDS,
    KoszulContext,
    ShiftedForm,
    lam,
    mc_residual,
)
from diracdeform.presymplectic import (
    CannotCertifyError,
    DistributionFrame,
    FrameError,
    NotClosedError,
    PreSymplecticData,
    annihilator_forms,
    build_presymplectic,
    certify_constant_rank,
    coefficient_matrix,
    constant_rank_report,
    deform,
    frame_is_involutive,
    horizontal_preservation_conditions,
    horizontality_witness_search,
    instance_from_json,
    instance_to_json,
    is_horizontal,
    kernel_distribution,
    koszul_preserves_horizontal,
    phi_z_frame,
)
from diracdeform.courant import graph_of_form_frame, is_dirac_frame
from diracdeform.randgen import (
    random_horizontal_form,
    random_presymplectic_form,
    random_presymplectic_instance,
)
from diracdeform.suites import family_f1, family_f2
from diracdeform.rational import PoleError


def f1_data(c4) -> PreSymplecticData:
    return build_presymplectic(DifferentialForm.make(c4, {(1, 2): 1}))


def f2_data(c5) -> PreSymplecticData:
    eta = DifferentialForm.make(c5, {(1, 2): 1, (3, 4): 1})
    G = DistributionFrame(
        c5,
        (
            partial(c5, 1),
            partial(c5, 2),
            partial(c5, 3),
            MultivectorField.make(c5, {(4,): 1, (5,): "x1"}),
        ),
        (Fraction(0),) * 5,
    )
    return build_presymplectic(eta, G)


# -- certification -----------------------------------------------------------------


def test_certify_worked(c4, c5):
    k, cert = certify_constant_rank(DifferentialForm.make(c4, {(1, 2): 1}))
    assert (k, cert["rule"], cert["witness"]) == (2, "constant", (0, 1))
    k, cert = certify_constant_rank(
        DifferentialForm.make(c4, {(1, 2): "x1^2 + 1"})
    )
    assert (k, cert["rule"]) == (2, "definite-pattern")
    with pytest.raises(CannotCertifyError):
        certify_constant_rank(DifferentialForm.make(c4, {(1, 2): "x1"}))
    k, _ = certify_constant_rank(
        DifferentialForm.make(c5, {(1, 2): 1, (3, 4): 1, (1, 3): "x1"})
    )
    assert k == 4
    k, _ = certify_constant_rank(DifferentialForm.zero(c4))
    assert k == 0


def test_certified_class_covers_shears(rng, c4, c5):
    for chart, k in ((c4, 2), (c5, 2), (c5, 4)):
        for _ in range(4):
            eta = random_presymplectic_form(rng, chart, k, shear_degree=2)
            kk, _ = certify_constant_rank(eta)
            assert kk == k
            assert de_rham(eta).is_zero()


# -- kernel and horizontality ----------------------------------------------------------


def test_kernel_worked(c4, c5):
    K = kernel_distribution(DifferentialForm.make(c4, {(1, 2): 1}))
    assert list(K.sections) == [partial(c4, 3), partial(c4, 4)]
    K = kernel_distribution(DifferentialForm.make(c5, {(1, 2): 1, (3, 4): 1}))
    assert list(K.sections) == [partial(c5, 5)]
    K = kernel_distribution(
        DifferentialForm.make(c5, {(1, 2): 1, (3, 4): 1, (1, 3): "x1"})
    )
    assert list(K.sections) == [partial(c5, 5)]


def test_kernel_sheared_instances(rng, c5):
    for _ in range(4):
        eta = random_presymplectic_form(rng, c5, 2, shear_degree=2)
        K = kernel_distribution(eta)
        assert K.rank == 3
        from diracdeform.exterior import contract

        for v in K.sections:
            assert contract(v, eta).is_zero()
        assert frame_is_involutive(K)


def test_is_horizontal_worked(c4):
    K = kernel_distribution(DifferentialForm.make(c4, {(1, 2): 1}))
    assert is_horizontal(DifferentialForm.make(c4, {(1, 2): 1}), K)
    assert not is_horizontal(DifferentialForm.make(c4, {(3, 4): 1}), K)
    assert is_horizontal(DifferentialForm.make(c4, {(3, 1): "x4"}), K)
    # functions are horizontal only when zero
    assert not is_horizontal(DifferentialForm.make(c4, {(): "x1"}), K)
    assert is_horizontal(DifferentialForm.zero(c4), K)


def test_annihilator_and_ideal(rng, c4):
    K = kernel_distribution(DifferentialForm.make(c4, {(1, 2): 1}))
    ann = annihilator_forms(K)
    assert sorted(to_json(a)["terms"][0]["indices"] for a in ann) == [[1], [2]]
    for _ in range(8):
        h = random_horizontal_form(rng, K, rng.randint(1, 3))
        assert is_horizontal(h, K)
        assert is_horizontal(de_rham(h), K)


def test_hoisted_annihilator_matches_per_call(monkeypatch):
    """A frame computes its annihilator generators once.  Its draws and its
    random stream are those of a fresh frame that computes them per call."""
    real = presymplectic.annihilator_forms
    calls = []
    monkeypatch.setattr(
        presymplectic, "annihilator_forms", lambda K: calls.append(K) or real(K)
    )
    sheared = random_presymplectic_instance(random.Random(3), Chart(4), 2, 2)
    families = [instance_from_json(f()) for f in (family_f1, family_f2)]
    for data in families + [sheared]:
        K = data.K
        for seed in range(3):
            hoisted, per_call = random.Random(seed), random.Random(seed)
            for degree in (1, 2, 3, 3, 2, 1):
                fresh = DistributionFrame(K.chart, K.sections, K.ref_point)
                h = random_horizontal_form(hoisted, K, degree)
                assert h == random_horizontal_form(per_call, fresh, degree)
                assert list(fresh.annihilator) == real(K)
            assert hoisted.getstate() == per_call.getstate()
        assert sum(c is K for c in calls) == 1
    # the sheared frame's generators are not constant
    assert any(
        not c.is_constant() for xi in sheared.K.annihilator for c in xi.terms.values()
    )


def test_frame_wedges_match_per_call(monkeypatch):
    """`is_horizontal` wedges a frame's sections once per degree.  Its
    answers and the wedges it keeps are those built fresh on each call."""
    real = presymplectic.wedge_all
    calls = []
    monkeypatch.setattr(
        presymplectic, "wedge_all", lambda fs: calls.append(fs) or real(fs)
    )
    sheared = random_presymplectic_instance(random.Random(3), Chart(4), 2, 2)
    families = [instance_from_json(f()) for f in (family_f1, family_f2)]
    for data in families + [sheared]:
        K, chart = data.K, data.K.chart
        rng = random.Random(0)
        alphas = [random_horizontal_form(rng, K, d) for d in (1, 2, 3)]
        alphas += [dx(chart, *idx) for p in (1, 2) for idx in
                   itertools.combinations(range(1, chart.dim + 1), p)]
        alphas += [dx(chart, 1) + dx(chart, 1, 2, 3), de_rham(alphas[0])]
        answers = []
        for alpha in alphas:
            fresh = DistributionFrame(K.chart, K.sections, K.ref_point)
            answers.append(is_horizontal(alpha, K))
            assert answers[-1] == is_horizontal(alpha, fresh)
        assert True in answers and False in answers
        built = len(calls)
        assert [is_horizontal(alpha, K) for alpha in alphas] == answers
        assert len(calls) == built  # the frame kept its wedges
        for p in range(1, K.rank + 1):
            assert K.wedges(p) == tuple(
                real(list(c)) for c in itertools.combinations(K.sections, p)
            )


def test_frame_guards(c4):
    with pytest.raises(FrameError):
        DistributionFrame(
            c4,
            (partial(c4, 1), MultivectorField.make(c4, {(1,): "x1"})),
            (Fraction(0),) * 4,
        )


# -- construction -------------------------------------------------------------------------


def test_build_f1(c4):
    data = f1_data(c4)
    assert data.k == 2
    assert data.Z == MultivectorField.make(c4, {(1, 2): 1})
    assert list(data.K.sections) == [partial(c4, 3), partial(c4, 4)]


def test_build_f2(c5):
    data = f2_data(c5)
    assert data.k == 4
    assert data.Z == MultivectorField.make(
        c5, {(1, 2): 1, (3, 4): 1, (3, 5): "x1"}
    )
    ctx = data.context()
    assert not ctx.is_poisson()
    assert not frame_is_involutive(data.G)


def test_build_rejects_nonclosed(c3):
    with pytest.raises(NotClosedError):
        build_presymplectic(DifferentialForm.make(c3, {(1, 3): "x2"}))


def test_instance_json_roundtrip(c5):
    data = f2_data(c5)
    payload = instance_to_json(data)
    again = instance_from_json(payload)
    assert again.eta == data.eta and again.k == data.k and again.Z == data.Z
    with pytest.raises(ValueError):
        instance_from_json({"chart": 3})


# -- horizontality preservation ------------------------------------------------------------


def test_preservation_conditions_positive(c4, c5):
    d1 = f1_data(c4)
    assert horizontal_preservation_conditions(d1.K, d1.context()) == (True, True)
    d2 = f2_data(c5)
    assert horizontal_preservation_conditions(d2.K, d2.context()) == (True, True)
    # rank 0: K is the whole tangent space, so it has no annihilator
    d0 = build_presymplectic(DifferentialForm.zero(c4))
    assert annihilator_forms(d0.K) == []
    assert horizontal_preservation_conditions(d0.K, d0.context()) == (True, True)


def test_koszul_preserves_horizontal(c4, c5):
    rng = random.Random(31)
    for data in (f1_data(c4), f2_data(c5)):
        rep = koszul_preserves_horizontal(data, rng, trials=5)
        assert rep["all"]


def test_engineered_negatives_produce_witnesses(c4):
    ctx = KoszulContext(MultivectorField.make(c4, {(1, 2): 1}))
    K_noninv = DistributionFrame(
        c4,
        (partial(c4, 3), MultivectorField.make(c4, {(4,): 1, (1,): "x3"})),
        (Fraction(0),) * 4,
    )
    flags = horizontal_preservation_conditions(K_noninv, ctx)
    assert flags[0] is False
    w = horizontality_witness_search(K_noninv, ctx)
    assert w is not None and not is_horizontal(w, K_noninv)

    ctx2 = KoszulContext(MultivectorField.make(c4, {(1, 2): "x3"}))
    K_flat = DistributionFrame(
        c4, (partial(c4, 3), partial(c4, 4)), (Fraction(0),) * 4
    )
    g1, g2 = horizontal_preservation_conditions(K_flat, ctx2)
    assert g1 is True and g2 is False
    w2 = horizontality_witness_search(K_flat, ctx2)
    assert w2 is not None and not is_horizontal(w2, K_flat)


def test_zero_bivector_pairing_condition_trivially_true(c4):
    ctx = KoszulContext(MultivectorField.zero(c4))
    K = DistributionFrame(c4, (partial(c4, 3), partial(c4, 4)), (Fraction(0),) * 4)
    assert horizontal_preservation_conditions(K, ctx) == (True, True)


# -- the deformation pipeline ------------------------------------------------------------------


F1_CASES = [
    ({}, True),
    ({(3, 1): Fraction(1, 2)}, True),
    ({(1, 3): "x4"}, False),
    ({(1, 2): Fraction(1, 2)}, True),
    ({(3, 1): "x3"}, True),
    ({(1, 2): "x3"}, False),
    ({(4, 1): "x4^2"}, True),
]


@pytest.mark.parametrize("terms,expect_mc", F1_CASES)
def test_deform_f1(c4, terms, expect_mc):
    data = f1_data(c4)
    beta = DifferentialForm.make(c4, terms)
    rep = deform(data, beta)
    assert rep["mc"] is expect_mc
    assert rep["biconditional"]
    assert rep["rank_k"] and rep["kernel_transverse"]


F2_CASES = [
    ({}, 1, True),
    ({(1, 2): 1, (3, 4): 1}, Fraction(1, 2), True),
    ({(1, 2): "x5"}, 1, False),
    ({(1, 2): 1, (3, 5): 1, (2, 4): 1}, Fraction(1, 2), False),
]


@pytest.mark.parametrize("terms,scale,expect_mc", F2_CASES)
def test_deform_f2(c5, terms, scale, expect_mc):
    data = f2_data(c5)
    beta = DifferentialForm.make(c5, terms).scale(scale)
    rep = deform(data, beta)
    assert rep["mc"] is expect_mc
    assert rep["biconditional"]
    assert rep["rank_k"] and rep["kernel_transverse"]


def test_deform_lambda3_contributes(c5):
    data = f2_data(c5)
    ctx = data.context()
    beta = DifferentialForm.make(c5, {(1, 2): 1, (3, 5): 1, (2, 4): 1}).scale(
        Fraction(1, 2)
    )
    s = ShiftedForm(beta)
    assert not lam(3, [s, s, s], ctx).form.is_zero()
    assert not mc_residual(beta, ctx).is_zero()


def test_deform_guards(c4):
    data = f1_data(c4)
    with pytest.raises(NonHorizontalError):
        deform(data, DifferentialForm.make(c4, {(3, 4): 1}))
    from diracdeform.exterior import DegreeError

    with pytest.raises(DegreeError):
        deform(data, dx(c4, 1))


def test_constant_rank_report_modes(c4):
    rep = constant_rank_report(DifferentialForm.make(c4, {(1, 2): 1}), 2)
    assert rep["rank_k"] and rep["mode"] == "exact"
    rep = constant_rank_report(
        DifferentialForm.make(c4, {(1, 2): 1, (3, 4): 1}), 2
    )
    assert not rep["rank_k"]
    rep = constant_rank_report(DifferentialForm.make(c4, {(1, 2): "x1"}), 2)
    assert rep["mode"] == "grid" and not rep["rank_k"]  # rank drops at x1 = 0


@st.composite
def _two_forms(draw):
    """2-forms on charts of dimension 2-5 with constant, polynomial and
    rational coefficients; most coefficients are zero, so every rank occurs.
    `3*x1 + 1` vanishes and `(1)/(2*x1 - 1)` has a pole on the default grid."""
    n = draw(st.integers(2, 5))
    pool = ["0", "0", "0", "1", "-2", "1/3", "x1", f"x{n}^2 + 1", f"x1*x{n} - 1",
            "3*x1 + 1", "(1)/(2*x1 - 1)"]
    terms = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        c = draw(st.sampled_from(pool))
        if c != "0":
            terms[(i, j)] = c
    return DifferentialForm.make(Chart(n), terms)


@given(_two_forms())
@example(DifferentialForm.zero(Chart(3)))
@example(DifferentialForm.make(Chart(2), {(1, 2): "x1"}))
@example(DifferentialForm.make(Chart(5), {(1, 2): 1, (3, 4): "x1"}))
@example(DifferentialForm.make(Chart(6), {(1, 2): 1, (3, 4): "x1", (5, 6): "x2^2 + 1"}))
# a pole at the first grid point, then a rank drop where 3*x1 + 1 vanishes
@example(DifferentialForm.make(Chart(2), {(1, 2): "(3*x1 + 1)/(x1^2 + x2^2)"}))
# poles where x1 = 0; one of two 2-Pfaffians vanishes before both do
@example(DifferentialForm.make(Chart(3), {(1, 2): "3*x1 + 1", (1, 3): "(2*x2 - 1)/(x1)"}))
@settings(max_examples=40, deadline=None)
def test_pfaffian_scan_matches_rank_oracle(form):
    """Both readers of the Pfaffian scan against the rank over Q(x), and the
    grid fallback against the rank of the evaluated matrix at each point."""
    n = form.chart.dim
    M = coefficient_matrix(form)
    r = linalg.rank(M)
    for k in range(0, n + 1, 2):
        rep = constant_rank_report(form, k)
        exact_no = not rep["rank_k"] and rep["mode"] == "exact"
        assert exact_no == (r != k), (k, r, rep)
        if r != k:
            reason = "rank exceeds k" if r > k else "generic rank below k"
            assert rep["reason"] == reason, (k, r, rep)
        if rep["mode"] == "grid":
            assert rep == _grid_rank_reference(M, k), (k, rep)
    try:
        k, _ = certify_constant_rank(form)
    except CannotCertifyError:
        return
    assert k == r


def _grid_rank_reference(M, k: int) -> dict:
    """The grid verdict of `constant_rank_report` from `linalg.rank` of the
    matrix evaluated at each grid point, skipping the poles."""
    checked = 0
    for point in itertools.product(DEFAULT_GRID_COORDS, repeat=len(M)):
        try:
            Mp = linalg.evaluate_matrix(M, point)
        except PoleError:
            continue
        checked += 1
        if linalg.rank(Mp) != k:
            return {"rank_k": False, "mode": "grid", "points": checked,
                    "reason": f"rank drop at {point}"}
    return {"rank_k": True, "mode": "grid", "points": checked}


# -- Dirac restatements --------------------------------------------------------------------------


def test_graph_dirac_iff_closed(rng, c3):
    for _ in range(8):
        if rng.random() < 0.5:
            eta = de_rham(
                DifferentialForm.make(
                    c3,
                    {
                        (i,): f"x{rng.randint(1, 3)}"
                        for i in range(1, 4)
                        if rng.random() < 0.7
                    },
                )
            )
        else:
            eta = DifferentialForm.make(
                c3, {(1, 3): f"x{rng.randint(1, 3)}"}
            )
        closed = de_rham(eta).is_zero()
        assert is_dirac_frame(graph_of_form_frame(eta)) == closed


def test_phi_z_dirac_iff_mc(rng, c3):
    from diracdeform.koszul import form_to_skew, i_z_determinant
    from diracdeform.randgen import random_field, random_form

    done = 0
    while done < 6:
        Z = random_field(rng, c3, 2, 1, density=0.7, bound=3)
        ctx = KoszulContext(Z)
        beta = (
            de_rham(random_form(rng, c3, 1, 1, density=0.7, bound=3))
            if rng.random() < 0.5
            else random_form(rng, c3, 2, 1, density=0.7, bound=3)
        )
        det = i_z_determinant(form_to_skew(beta), ctx.bivector)
        try:
            if det.evaluate([Fraction(0)] * 3) == 0:
                continue
        except ZeroDivisionError:
            continue
        frame = phi_z_frame(beta, ctx)
        mc = mc_residual(beta, ctx).is_zero()
        assert is_dirac_frame(frame) == mc
        done += 1


def test_sheared_instance_pipeline_regression(c5):
    """Degree-2 shears with the coordinate complement: build + deform end to end.

    This stream previously hit catastrophic gcd blowups in the quotient-rule
    derivatives of the deformed form's rational coefficients.
    """
    from diracdeform.randgen import random_presymplectic_instance
    from diracdeform.koszul import form_to_skew, i_z_determinant

    rng = random.Random(1)
    done = 0
    for (n, k, sd) in ((4, 2, 2), (5, 2, 2), (5, 4, 2)):
        from diracdeform.exterior import Chart

        chart = Chart(n)
        data = random_presymplectic_instance(rng, chart, k, shear_degree=sd)
        assert data.k == k
        ctx = data.context()
        assert horizontal_preservation_conditions(data.K, ctx) == (True, True)
        beta = random_horizontal_form(rng, data.K, 2, max_coef_degree=1, bound=3)
        if i_z_determinant(form_to_skew(beta), ctx.bivector).is_zero():
            continue
        rep = deform(data, beta)
        assert rep["biconditional"]
        done += 1
    assert done >= 2


def test_default_complement_rejects_uncertifiable_framing(c4):
    """Nonlinear shears can defeat the default complement; the coordinate
    complement always certifies. The rejection path must raise FrameError."""
    from diracdeform.randgen import (
        coordinate_complement_frame,
        random_presymplectic_form,
    )

    rng = random.Random(0)
    eta = random_presymplectic_form(rng, c4, 2, shear_degree=2)
    with pytest.raises(FrameError):
        build_presymplectic(eta)  # default orthogonal complement fails
    data = build_presymplectic(eta, coordinate_complement_frame(c4, 2))
    assert data.k == 2
