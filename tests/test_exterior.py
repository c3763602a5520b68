"""Grassmann calculus: worked examples and the algebraic identity battery."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracdeform.exterior import (
    Chart,
    ChartMismatchError,
    DegreeError,
    DifferentialForm,
    MultivectorField,
    contract,
    de_rham,
    dx,
    evaluate,
    field_from_json,
    form_from_json,
    function,
    lie_cartan,
    lie_derivative,
    multi_sharp,
    pairing,
    partial,
    schouten,
    to_json,
    vanishes_at,
    vf_commutator,
    wedge,
    wedge_all,
)
from diracdeform.rational import PoleError, Scalar, poly_from_str
from diracdeform.randgen import random_field, random_form


# -- wedge -------------------------------------------------------------------


def test_wedge_basis_cases(c2, c3):
    assert wedge(dx(c2, 1), dx(c2, 2)) == dx(c2, 1, 2)
    assert wedge(dx(c2, 1), dx(c2, 1)).is_zero()
    a = DifferentialForm.make(c3, {(1,): "x1"})
    assert wedge(a, dx(c3, 2, 3)) == DifferentialForm.make(c3, {(1, 2, 3): "x1"})
    assert wedge(dx(c2, 2), dx(c2, 1)) == -dx(c2, 1, 2)


def test_wedge_kind_and_chart_guards(c2, c3):
    with pytest.raises(TypeError):
        wedge(dx(c2, 1), partial(c2, 1))
    with pytest.raises(ChartMismatchError):
        wedge(dx(c2, 1), dx(c3, 1))


# -- de Rham ------------------------------------------------------------------


def test_de_rham_worked(c2):
    assert de_rham(DifferentialForm.make(c2, {(2,): "x1"})) == dx(c2, 1, 2)
    assert de_rham(dx(c2, 1, 2)).is_zero()
    q = DifferentialForm.make(c2, {(2,): "(1)/(x1^2 + 1)"})
    want = DifferentialForm.make(c2, {(1, 2): "(-2*x1)/(x1^4 + 2*x1^2 + 1)"})
    assert de_rham(q) == want


def test_d_squared_randomized(rng, c4):
    for _ in range(25):
        deg = rng.randint(0, 3)
        alpha = random_form(rng, c4, deg, max_coef_degree=4)
        assert de_rham(de_rham(alpha)).is_zero()


def test_graded_leibniz_randomized(rng, c4):
    for _ in range(25):
        p = rng.randint(0, 3)
        a = random_form(rng, c4, p)
        b = random_form(rng, c4, rng.randint(0, 3))
        lhs = de_rham(wedge(a, b))
        rhs = wedge(de_rham(a), b) + wedge(a, de_rham(b)).scale((-1) ** p)
        assert lhs == rhs


# -- contraction ----------------------------------------------------------------


def test_contraction_convention(c2, c3):
    assert contract(partial(c2, 1), dx(c2, 1, 2)) == dx(c2, 2)
    P = MultivectorField.make(c2, {(1, 2): "x1"})
    assert contract(P, dx(c2, 1, 2)) == function(c2, "-x1")
    assert contract(partial(c3, 1, 2), dx(c3, 3)).is_zero()


def test_contraction_nested_oracle(rng, c4):
    # iota_{X1 ^ X2} == iota_{X1} o iota_{X2} on random decomposables
    for _ in range(10):
        X = random_field(rng, c4, 1)
        Y = random_field(rng, c4, 1)
        alpha = random_form(rng, c4, rng.randint(2, 4))
        lhs = contract(wedge(X, Y), alpha)
        rhs = contract(X, contract(Y, alpha))
        assert lhs == rhs


def test_lie_derivative_worked(c2):
    P = MultivectorField.make(c2, {(1, 2): "x1"})
    assert lie_derivative(P, dx(c2, 1, 2)) == dx(c2, 1)
    assert lie_derivative(partial(c2, 1), DifferentialForm.make(c2, {(2,): "x1"})) == dx(c2, 2)
    Zc = MultivectorField.make(c2, {(1, 2): 1})
    assert lie_derivative(Zc, dx(c2, 1, 2)).is_zero()


def test_lie_cartan_requires_vector_field(c2):
    with pytest.raises(DegreeError):
        lie_cartan(partial(c2, 1, 2), dx(c2, 1))


# -- Schouten bracket -------------------------------------------------------------


def test_schouten_worked(c3, c4):
    Z = MultivectorField.make(c4, {(1, 2): 1, (3, 4): "x1"})
    assert schouten(Z, Z) == MultivectorField.make(c4, {(2, 3, 4): -2})
    Zp = MultivectorField.make(c3, {(1, 2): 1, (1, 3): "x2"})
    assert schouten(Zp, Zp).is_zero()
    Zc = MultivectorField.make(c4, {(1, 2): 1, (3, 4): 5})
    assert schouten(Zc, Zc).is_zero()
    # vector fields: the Lie bracket
    X = MultivectorField.make(c3, {(1,): "x3"})
    assert vf_commutator(X, partial(c3, 3)) == MultivectorField.make(c3, {(1,): -1})


def test_schouten_graded_symmetry(rng, c4):
    for _ in range(20):
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        P = random_field(rng, c4, p)
        Q = random_field(rng, c4, q)
        lhs = schouten(P, Q)
        rhs = schouten(Q, P).scale((-1) ** ((p - 1) * (q - 1)))
        assert (lhs + rhs).is_zero()


def test_schouten_operator_identity_oracle(rng, c4):
    """iota_[P,Q] == [[iota_P, d], iota_Q] with graded commutators."""

    def lie_gc(W, wdeg, a):
        t = contract(W, de_rham(a))
        u = de_rham(contract(W, a))
        return t - u if wdeg % 2 == 0 else t + u

    for _ in range(20):
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        P = random_field(rng, c4, p)
        Q = random_field(rng, c4, q)
        alpha = random_form(rng, c4, rng.randint(p + q - 1, 4))
        lhs = contract(schouten(P, Q), alpha)
        t = lie_gc(P, p, contract(Q, alpha))
        u = contract(Q, lie_gc(P, p, alpha))
        rhs = t - u.scale((-1) ** (q * (p - 1)))
        assert lhs == rhs


# -- multi-sharp --------------------------------------------------------------------


def test_multi_sharp_worked(c2, c3):
    assert multi_sharp([dx(c2, 1), dx(c2, 2)], partial(c2, 1, 2)) == function(c2, 1)
    # a 0-form slot dies under contraction with a vector
    z = multi_sharp([function(c3, "x1"), dx(c3, 2)], partial(c3, 1, 2))
    assert z.is_zero()
    assert multi_sharp(
        [dx(c3, 1), dx(c3, 2), dx(c3, 3)], MultivectorField.zero(c3)
    ).is_zero()


def test_multi_sharp_arity_guard(c3):
    with pytest.raises(DegreeError):
        multi_sharp([dx(c3, 1)], partial(c3, 1, 2))


def test_multi_sharp_alternating(rng, c4):
    for _ in range(8):
        W = random_field(rng, c4, 2)
        a = random_form(rng, c4, rng.randint(1, 2))
        b = random_form(rng, c4, rng.randint(1, 2))
        da, db = 0, 0
        if not a.is_zero():
            da = a.degree()
        if not b.is_zero():
            db = b.degree()
        lhs = multi_sharp([a, b], W)
        rhs = multi_sharp([b, a], W)
        # swapping the slots introduces the sign of swapping the forms
        # against the (odd) pairing slots: (-1)^(da*db) from the wedge of
        # the contracted pieces times the permutation sign
        sign = -((-1) ** ((da - 1) * (db - 1)))
        assert lhs == rhs.scale(sign)


def _multi_sharp_reference(forms, W):
    """multi_sharp as defined: one contraction per (term of W, permutation)."""
    k = len(forms)
    out = DifferentialForm.zero(W.chart)
    for J, g in W.terms.items():
        for perm in itertools.permutations(range(k)):
            inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(k), 2))
            pieces = [contract(partial(W.chart, J[perm[s]]), forms[s]) for s in range(k)]
            term = wedge_all(pieces).scale(g)
            out = out + (-term if inversions % 2 else term)
    return out


def test_multi_sharp_matches_uncached_reference(rng, c4):
    for k in (2, 3):
        for _ in range(4):
            W = random_field(rng, c4, k, max_coef_degree=1)
            forms = [
                random_form(rng, c4, rng.randint(1, 2), max_coef_degree=1)
                for _ in range(k)
            ]
            assert multi_sharp(forms, W) == _multi_sharp_reference(forms, W)


def test_pairing_convention(c2):
    assert pairing(partial(c2, 1, 2), dx(c2, 1, 2)) == Scalar.one(2)


# -- evaluation and serialization -------------------------------------------------


def test_evaluate_worked(c2):
    a = DifferentialForm.make(c2, {(2,): "x1"})
    assert evaluate(a, [3, 0]) == DifferentialForm.make(c2, {(2,): 3})
    pole = DifferentialForm.make(c2, {(2,): "(1)/(1 - x1)"})
    with pytest.raises(PoleError):
        evaluate(pole, [1, 0])


def test_evaluate_homomorphism(rng, c3):
    for _ in range(10):
        a = random_form(rng, c3, rng.randint(0, 2))
        b = random_form(rng, c3, rng.randint(0, 2))
        v = random_field(rng, c3, 1)
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)]
        assert evaluate(wedge(a, b), pt) == wedge(evaluate(a, pt), evaluate(b, pt))
        assert evaluate(contract(v, a), pt) == contract(
            evaluate(v, pt), evaluate(a, pt)
        )


# coefficient pieces: x1 - a vanishes on the grid below for a in it, so
# the draws hit poles and zero values often
_GRID = ("0", "1", "-1", "1/2")
_FACTORS = st.sampled_from(["1", "x1", "x2 + 1", "x1 - 1", "x1*x2 - 1/2", "2*x3 + 1"])


@st.composite
def _coefficient(draw):
    def product(factors):
        out = Scalar.one(3)
        for f in factors:
            out = out * Scalar.from_poly(poly_from_str(f, 3))
        return out

    num = product(draw(st.lists(_FACTORS, min_size=1, max_size=3)))
    if draw(st.booleans()):
        return num / product(draw(st.lists(_FACTORS, min_size=1, max_size=2)))
    return num.scale(draw(st.integers(0, 3)))


@given(st.dictionaries(st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 3)]),
                       _coefficient(), max_size=4),
       st.lists(st.sampled_from(_GRID), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_vanishes_at_matches_evaluate(terms, point):
    c3 = Chart(3)
    elem = DifferentialForm.make(c3, terms)
    try:
        want = evaluate(elem, point).is_zero()
    except PoleError as exc:
        with pytest.raises(PoleError) as got:
            vanishes_at(elem, point)
        assert str(got.value) == str(exc)
    else:
        assert vanishes_at(elem, point) == want
    with pytest.raises(ValueError):
        vanishes_at(elem, point[:2])


# -- canonical form: sorted in-range indices, no stored zero ---------------------


def _assert_canonical(elem):
    for idx, c in elem.terms.items():
        assert all(1 <= i <= elem.chart.dim for i in idx), idx
        assert all(a < b for a, b in zip(idx, idx[1:])), idx
        assert not c.is_zero(), idx
    # a stored zero or an unsorted key would make these two unequal
    assert type(elem).make(elem.chart, elem.terms) == elem


def _element(cls):
    raw = st.lists(st.integers(1, 3), max_size=3).map(tuple)
    terms = st.dictionaries(raw, _coefficient(), max_size=4)
    return terms.map(lambda t: cls.make(Chart(3), t))


@given(_element(DifferentialForm), _element(DifferentialForm),
       _element(MultivectorField), _element(MultivectorField),
       st.integers(0, 3), st.integers(0, 3), _coefficient())
@settings(max_examples=60, deadline=None)
def test_results_stay_canonical(a, b, P, Q, p, q, c):
    Pp, Qq = P.part(p), Q.part(q)
    W = P.part(2)
    results = [
        a, P, a + b, a - b, a.scale(c), P.scale(c), wedge(a, b), wedge(P, Q),
        de_rham(a), contract(P, a), schouten(P, Q), multi_sharp([a, b], W),
    ]
    cancelling = [
        a + (-a), P - P, wedge(a.part(1), a.part(1)),
        schouten(Pp, Qq) + schouten(Qq, Pp).scale((-1) ** ((p - 1) * (q - 1))),
        multi_sharp([a.part(1), a.part(1)], W),
    ]
    for r in results + cancelling:
        _assert_canonical(r)
    for r in cancelling:
        assert r.terms == {}


def test_json_roundtrip(rng, c4):
    for _ in range(6):
        a = random_form(rng, c4, rng.randint(0, 3))
        assert form_from_json(to_json(a)) == a
        P = random_field(rng, c4, rng.randint(0, 3))
        assert field_from_json(to_json(P)) == P
    payload = to_json(dx(c4, 1, 3))
    assert payload["chart"] == 4
    assert payload["terms"] == [
        {"degree": 2, "indices": [1, 3], "num": "1", "den": "1"}
    ]


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        form_from_json({"chart": 2, "terms": [{"indices": [1], "num": "1"}]})
    with pytest.raises(ValueError):
        form_from_json({"terms": []})
    with pytest.raises(ValueError):
        form_from_json(
            {"chart": 2, "terms": [{"degree": 2, "indices": [1], "num": "1", "den": "1"}]}
        )


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(0)
