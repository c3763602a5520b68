"""Koszul/trinary brackets, the L-infinity[1] structure, Maurer-Cartan,
and the symbolic graph map."""

import random
from fractions import Fraction

import pytest

from diracdeform import koszul
from diracdeform.dirac import NotInIZError, SkewBilinear
from diracdeform.exterior import (
    Chart,
    DegreeError,
    DifferentialForm,
    MultivectorField,
    de_rham,
    dx,
    lie_derivative,
    partial,
    schouten,
)
from diracdeform.koszul import (
    ArityError,
    KoszulContext,
    ShiftedForm,
    bivector_to_field,
    field_to_bivector,
    form_to_skew,
    i_z_determinant,
    jacobi_residual,
    koszul_bracket,
    koszul_bracket_oneform,
    lam,
    lstar_bracket,
    mc_equivalence_report,
    mc_residual,
    mu,
    psi_from_dorfman,
    psi_value,
    skew_to_form,
    trinary_bracket,
    F_symbolic,
    F_symbolic_form,
)
from diracdeform.linalg import identity, inverse, mat_add, mat_mul
from diracdeform.randgen import random_field, random_form, random_scalar


def nonpoisson_ctx(c4):
    return KoszulContext(MultivectorField.make(c4, {(1, 2): 1, (3, 4): "x1"}))


# -- context and conversions -----------------------------------------------------


def test_context_invariants(c4):
    ctx = nonpoisson_ctx(c4)
    assert ctx.half_schouten == schouten(ctx.Z, ctx.Z).scale(Fraction(1, 2))
    assert not ctx.is_poisson()
    with pytest.raises(DegreeError):
        KoszulContext(partial(c4, 1))


def test_koszul_memo_half_schouten_is_lazy(monkeypatch, c4):
    Z = nonpoisson_ctx(c4).Z
    want = schouten(Z, Z).scale(Fraction(1, 2))
    calls = []
    monkeypatch.setattr(
        koszul, "schouten", lambda P, Q: calls.append(1) or schouten(P, Q)
    )
    ctx = nonpoisson_ctx(c4)
    assert calls == []
    assert not ctx.is_poisson()
    assert len(calls) == 1
    assert ctx.half_schouten == want and not ctx.is_poisson()
    assert len(calls) == 1


def test_koszul_memo_matches_uncached_lie_derivative(monkeypatch):
    """L_Z read from the context's memo gives the brackets of an uncached L_Z.

    One context serves every call of a case, so later calls read entries
    that earlier calls stored."""
    rng = random.Random(16)
    cases = []
    for n in (3, 4, 4):
        chart = Chart(n)
        Z = random_field(rng, chart, 2, 1, density=0.7)
        forms = [random_form(rng, chart, d, 1, density=0.6) for d in (1, 2, 1, 2, 1)]
        beta = random_form(rng, chart, 2, 1, density=0.6)
        cases.append((Z, forms, beta))

    def run(Z, forms, beta):
        ctx = KoszulContext(Z)
        out = [koszul_bracket(a, b, ctx) for a in forms for b in forms]
        for arity in (3, 4, 5):
            out.append(jacobi_residual([ShiftedForm(f) for f in forms[:arity]], ctx))
        out.append(mc_residual(beta, ctx))
        return out

    memo = [run(*case) for case in cases]
    monkeypatch.setattr(
        koszul, "lie_by_bivector", lambda ctx, alpha: lie_derivative(ctx.Z, alpha)
    )
    assert [run(*case) for case in cases] == memo


def test_conversion_roundtrips(rng, c4):
    for _ in range(6):
        beta = random_form(rng, c4, 2)
        assert skew_to_form(form_to_skew(beta), c4) == beta
        Z = random_field(rng, c4, 2)
        assert bivector_to_field(field_to_bivector(Z), c4) == Z


def test_sharp_convention(c4):
    # Z = d1 ^ d2: Z#(dx1) = d2, Z#(dx2) = -d1
    ctx = KoszulContext(MultivectorField.make(c4, {(1, 2): 1}))
    assert ctx.sharp(dx(c4, 1)) == partial(c4, 2)
    assert ctx.sharp(dx(c4, 2)) == -partial(c4, 1)


# -- Koszul bracket ---------------------------------------------------------------


def test_worked_r2_value(c2):
    ctx = KoszulContext(MultivectorField.make(c2, {(1, 2): "x1"}))
    assert koszul_bracket(dx(c2, 1), dx(c2, 2), ctx) == dx(c2, 1)
    assert koszul_bracket_oneform(dx(c2, 1), dx(c2, 2), ctx) == dx(c2, 1)


def test_zero_bivector_kills_bracket(rng, c3):
    ctx = KoszulContext(MultivectorField.zero(c3))
    for _ in range(4):
        a = random_form(rng, c3, rng.randint(0, 2))
        b = random_form(rng, c3, rng.randint(0, 2))
        assert koszul_bracket(a, b, ctx).is_zero()


def test_constant_inputs_constant_Z(c4):
    ctx = KoszulContext(MultivectorField.make(c4, {(1, 2): 1}))
    a = dx(c4, 1, 3)
    b = dx(c4, 2, 4)
    assert koszul_bracket(a, b, ctx).is_zero()


def test_oneform_formula_agreement_randomized(rng, c3):
    for _ in range(20):
        ctx = KoszulContext(random_field(rng, c3, 2, 2, density=0.8))
        a = random_form(rng, c3, 1, 2, density=0.8)
        b = random_form(rng, c3, 1, 2, density=0.8)
        assert koszul_bracket(a, b, ctx) == koszul_bracket_oneform(a, b, ctx)


def test_bracket_requires_homogeneous(c3):
    ctx = KoszulContext(MultivectorField.make(c3, {(1, 2): 1}))
    mixed = dx(c3, 1) + dx(c3, 1, 2)
    with pytest.raises(DegreeError):
        koszul_bracket(mixed, dx(c3, 1), ctx)


# -- trinary bracket ---------------------------------------------------------------


def test_trinary_vanishes_for_poisson(rng, c3, c4):
    ctx = KoszulContext(MultivectorField.make(c4, {(1, 2): 1}))
    a = random_form(rng, c4, 2)
    assert trinary_bracket(a, a, a, ctx).is_zero()
    Zp = MultivectorField.make(c3, {(1, 2): 1, (1, 3): "x2"})
    ctxp = KoszulContext(Zp)
    assert ctxp.is_poisson()
    assert trinary_bracket(
        random_form(rng, c3, 2), random_form(rng, c3, 1), random_form(rng, c3, 2), ctxp
    ).is_zero()


def test_trinary_matches_direct_expansion(rng, c4):
    from diracdeform.exterior import multi_sharp

    ctx = nonpoisson_ctx(c4)
    for _ in range(6):
        forms = [random_form(rng, c4, 2) for _ in range(3)]
        direct = multi_sharp(forms, ctx.half_schouten)
        assert trinary_bracket(*forms, ctx) == direct


# -- lambda and mu -------------------------------------------------------------------


def test_lambda1_is_de_rham(rng, c4):
    ctx = nonpoisson_ctx(c4)
    eta = random_form(rng, c4, 2)
    out = lam(1, [ShiftedForm(eta)], ctx)
    assert out.form == de_rham(eta)


def test_lambda_arity_guard(rng, c4):
    ctx = nonpoisson_ctx(c4)
    x = ShiftedForm(random_form(rng, c4, 2))
    with pytest.raises(ArityError):
        lam(4, [x, x, x, x], ctx)
    with pytest.raises(ArityError):
        lam(2, [x], ctx)
    with pytest.raises(ArityError):
        mu(2, [x, x, x], ctx)


def test_lambda_graded_symmetry(rng, c4):
    ctx = nonpoisson_ctx(c4)
    for _ in range(10):
        degs = [rng.randint(0, 3) for _ in range(3)]
        xs = [ShiftedForm(random_form(rng, c4, d)) for d in degs]
        d = [x.shifted_degree for x in xs]
        s01 = (-1) ** (d[0] * d[1])
        assert lam(2, [xs[0], xs[1]], ctx).form == lam(
            2, [xs[1], xs[0]], ctx
        ).form.scale(s01)
        s12 = (-1) ** (d[1] * d[2])
        assert lam(3, xs, ctx).form == lam(
            3, [xs[0], xs[2], xs[1]], ctx
        ).form.scale(s12)


def test_mu_relations_and_intertwiner(rng, c4):
    ctx = nonpoisson_ctx(c4)
    psi = psi_from_dorfman(ctx)
    assert psi == -ctx.half_schouten
    for _ in range(8):
        degs = [rng.randint(0, 3) for _ in range(3)]
        xs = [ShiftedForm(random_form(rng, c4, d)) for d in degs]
        assert mu(1, xs[:1], ctx).form == lam(1, xs[:1], ctx).form
        assert mu(2, xs[:2], ctx).form == -lam(2, xs[:2], ctx).form
        assert mu(3, xs, ctx, psi=psi).form == lam(3, xs, ctx).form
        for k in (1, 2, 3):
            args = xs[:k]
            assert mu(k, [-x for x in args], ctx).form == -lam(k, args, ctx).form


def test_lstar_bracket_equals_koszul(rng, c4):
    """The Dorfman-Leibniz extension reproduces the Koszul bracket."""
    ctx = nonpoisson_ctx(c4)
    for _ in range(8):
        a = random_form(rng, c4, rng.randint(0, 3))
        b = random_form(rng, c4, rng.randint(0, 3))
        assert lstar_bracket(a, b, ctx) == koszul_bracket(a, b, ctx)


def test_psi_is_tensorial_and_alternating(rng, c4):
    ctx = nonpoisson_ctx(c4)
    b = [dx(c4, i) for i in range(1, 5)]
    v123 = psi_value(ctx, b[0], b[1], b[2])
    assert psi_value(ctx, b[1], b[0], b[2]) == -v123
    assert psi_value(ctx, b[0], b[0], b[2]).is_zero()
    f = random_scalar(rng, 4, 2)
    assert psi_value(ctx, b[0].scale(f), b[1], b[2]) == f * v123
    assert psi_value(ctx, b[0], b[1].scale(f), b[2]) == f * v123
    assert psi_value(ctx, b[0], b[1], b[2].scale(f)) == f * v123


# -- generalized Jacobi -----------------------------------------------------------------


def test_jacobi_identities_all_arities(rng, c4):
    ctx = nonpoisson_ctx(c4)
    for arity in range(1, 6):
        for _ in range(3):
            degs = [rng.randint(1, 3) for _ in range(arity)]
            xs = [ShiftedForm(random_form(rng, c4, d, 2)) for d in degs]
            assert jacobi_residual(xs, ctx).is_zero()


def test_jacobi_poisson_dgla(rng, c3):
    Zp = MultivectorField.make(c3, {(1, 2): 1, (1, 3): "x2"})
    ctx = KoszulContext(Zp)
    for _ in range(4):
        xs = [ShiftedForm(random_form(rng, c3, rng.randint(1, 3))) for _ in range(3)]
        assert lam(3, xs, ctx).form.is_zero()
        assert jacobi_residual(xs, ctx).is_zero()


# -- Maurer-Cartan ------------------------------------------------------------------------


def test_mc_residual_worked(c4):
    ctx = KoszulContext(MultivectorField.make(c4, {(1, 2): 1}))
    assert mc_residual(DifferentialForm.zero(c4), ctx).is_zero()
    b1 = DifferentialForm.make(c4, {(1, 3): 1})
    assert mc_residual(b1, ctx).is_zero()
    b2 = DifferentialForm.make(c4, {(1, 3): "x4"})
    assert not mc_residual(b2, ctx).is_zero()
    assert not de_rham(F_symbolic_form(b2, ctx)).is_zero()
    with pytest.raises(DegreeError):
        mc_residual(dx(c4, 1), ctx)


def test_mc_zero_bivector_reduces_to_closedness(rng, c3):
    ctx = KoszulContext(MultivectorField.zero(c3))
    for _ in range(5):
        beta = random_form(rng, c3, 2)
        assert mc_residual(beta, ctx) == de_rham(beta)


def test_F_symbolic_worked(c4):
    ctx = KoszulContext(MultivectorField.make(c4, {(1, 2): 1}))
    b1 = DifferentialForm.make(c4, {(1, 3): 1})
    # nilpotent product: (id + N)^{-1} = id - N, and here F(beta) = beta
    assert F_symbolic_form(b1, ctx) == b1
    assert de_rham(F_symbolic_form(b1, ctx)).is_zero()
    assert mc_residual(b1, ctx).is_zero()
    assert F_symbolic(DifferentialForm.zero(c4), ctx) == SkewBilinear.zero(4, 4)


def test_F_symbolic_generically_singular(c2):
    ctx = KoszulContext(MultivectorField.make(c2, {(1, 2): 1}))
    with pytest.raises(NotInIZError):
        F_symbolic(DifferentialForm.make(c2, {(1, 2): 1}), ctx)


def test_F_symbolic_matches_linear_family(c2):
    from diracdeform.dirac import Bivector, F

    ctx = KoszulContext(MultivectorField.make(c2, {(1, 2): 1}))
    Z2 = Bivector.from_pairs(2, 0, {(0, 1): 1})
    for t in (Fraction(1, 2), Fraction(-3)):
        beta = DifferentialForm.make(c2, {(1, 2): t})
        assert F_symbolic_form(beta, ctx) == DifferentialForm.make(
            c2, {(1, 2): t / (1 - t)}
        )
        lin = F(SkewBilinear.from_pairs(2, 0, {(0, 1): t}), Z2)
        assert lin.value(0, 1).constant_value() == t / (1 - t)


def test_mc_equivalence_modes(c2, c4):
    ctx = KoszulContext(MultivectorField.make(c4, {(1, 2): 1}))
    rep = mc_equivalence_report(DifferentialForm.make(c4, {(1, 3): "x4"}), ctx)
    assert rep["mode"] == "symbolic" and rep["equivalent"]
    assert rep["mc"] is False and rep["closed"] is False
    ctx2 = KoszulContext(MultivectorField.make(c2, {(1, 2): 1}))
    rep2 = mc_equivalence_report(DifferentialForm.make(c2, {(1, 2): "x1"}), ctx2)
    assert rep2["mode"] == "grid" and rep2["equivalent"]
    assert rep2["points_checked"] > 0


def test_mc_equivalence_skips_zeros_of_the_determinant(c2):
    # det(id + Z# beta#) = (x1 - 1)^2 vanishes on the grid row x1 = 1
    ctx = KoszulContext(MultivectorField.make(c2, {(1, 2): 1}))
    beta = DifferentialForm.make(c2, {(1, 2): "x1"})
    grid = (Fraction(0), Fraction(1), Fraction(-1))
    rep = mc_equivalence_report(beta, ctx, grid)
    assert rep["mode"] == "grid" and rep["equivalent"]
    assert rep["points_checked"] == 6


def test_mc_equivalence_randomized(rng, c4):
    done = 0
    while done < 8:
        Z = random_field(rng, c4, 2, 1, density=0.5, bound=3)
        ctx = KoszulContext(Z)
        beta = random_form(rng, c4, 2, 1, density=0.5, bound=3)
        if i_z_determinant(form_to_skew(beta), ctx.bivector).is_zero():
            continue
        rep = mc_equivalence_report(beta, ctx)
        assert rep["equivalent"]
        # F against its definition beta# (id + Z# beta#)^{-1}
        B, W = form_to_skew(beta).mat, ctx.bivector.mat
        M = mat_add(identity(4, 4), mat_mul(W, B))
        assert F_symbolic(beta, ctx).mat == mat_mul(B, inverse(M))
        done += 1


def test_dirac_mc_agreement_regression(c3):
    """A frozen (Z, beta) pair that once stalled the Dirac closure solver."""
    from diracdeform.presymplectic import phi_z_frame
    from diracdeform.courant import is_dirac_frame

    Z = MultivectorField.make(
        c3, {(1, 2): "2*x1 - 1/3*x2", (1, 3): "1/2*x2 + 1", (2, 3): "2*x1 - 3*x2"}
    )
    beta = DifferentialForm.make(c3, {(1, 2): "x2 - 2/3", (1, 3): "x3 - 1"})
    ctx = KoszulContext(Z)
    mc = mc_residual(beta, ctx).is_zero()
    dirac = is_dirac_frame(phi_z_frame(beta, ctx))
    assert mc is False and dirac is False
