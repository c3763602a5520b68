"""Scalar arithmetic: canonical fractions of multivariate polynomials.

sympy is used only as an independent oracle (gcd, differentiation); the
package itself never imports it.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from diracdeform import rational
from diracdeform.rational import (
    Poly,
    PoleError,
    Scalar,
    is_definite,
    is_positive_pattern,
    poly_divexact,
    poly_from_str,
    poly_gcd,
    poly_lcm,
    poly_to_str,
    random_poly,
    scalar_from_str,
    scalar_is_definite,
    scalar_to_str,
)

SYMS = sympy.symbols("x1 x2 x3 x4 x5")


def to_sympy(p: Poly):
    total = 0
    for e, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(SYMS, e):
            term *= s**k
        total += term
    return total


def x(i, nv):
    return Poly.variable(i, nv)


# -- polynomial ring basics --------------------------------------------------


def test_ring_identities():
    p = x(1, 2) * x(1, 2) + x(2, 2).scale(3) + Poly.const(2, Fraction(1, 2))
    q = x(1, 2) - Poly.one(2)
    assert p * q == q * p
    assert (p + q) - q == p
    assert p * Poly.one(2) == p
    assert (p * Poly.zero(2)).is_zero()


def test_parse_print_roundtrip():
    cases = ["0", "1", "-3/2", "x1", "2*x1^3*x2 - x2 + 1/2", "x1*x2*x3"]
    for text in cases:
        p = poly_from_str(text, 3)
        assert poly_from_str(poly_to_str(p), 3) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        poly_from_str("x9", 3)
    with pytest.raises(ValueError):
        poly_from_str("x1^", 3)
    with pytest.raises(ValueError):
        poly_from_str("", 3)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_constant_arithmetic_matches_fractions(a, b, d):
    fa, fb = Fraction(a, d), Fraction(b, d)
    pa, pb = Poly.const(0, fa), Poly.const(0, fb)
    assert (pa * pb).coefficient(()) == fa * fb
    assert (pa + pb).coefficient(()) == fa + fb


FRACTIONS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)


def _structure(s: Scalar):
    return dict(s.num.items()), dict(s.den.items())


def _reference(value: Fraction, nv: int):
    """The canonical structure of a constant, computed two ways."""
    zero_exp = (0,) * nv
    want = ({zero_exp: value} if value else {}), {zero_exp: Fraction(1)}
    if nv:
        # a common non-constant factor sends the value through poly_gcd/_cancel
        p = poly_from_str("x1^2 - 3*x2 + 1", nv)
        through_gcd = Scalar(Poly.const(nv, value.numerator) * p,
                             Poly.const(nv, value.denominator) * p)
        assert _structure(through_gcd) == want
    return want


@given(FRACTIONS, FRACTIONS, st.sampled_from([0, 2]))
@settings(max_examples=200, deadline=None)
def test_constant_fast_path_matches_general_path(fa, fb, nv):
    a, b = Scalar.const(nv, fa), Scalar.const(nv, fb)
    results = {
        "*": (a * b, fa * fb),
        "+": (a + b, fa + fb),
        "-": (a - b, fa - fb),
    }
    if fa:
        results["inverse"] = (a.inverse(), 1 / fa)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    for op, (got, value) in results.items():
        assert _structure(got) == _reference(value, nv), op
        assert all(type(c) is Fraction for _, c in got.num.items()), op
        assert got.is_constant() and got.constant_value() == value, op
    # constants spelled as a quotient are cancelled on Fractions too
    if fb:
        quotient = scalar_from_str(f"({fa})/({fb})", nv)
        assert _structure(quotient) == _reference(fa / fb, nv)
        assert _structure(a.scale(fb)) == _reference(fa * fb, nv)


def _polys(nv: int):
    coefs = st.fractions(-20, 20, max_denominator=12).filter(bool)
    monos = st.tuples(*[st.integers(0, 2)] * nv)
    return st.dictionaries(monos, coefs, max_size=4).map(lambda t: Poly.from_terms(nv, t))


@st.composite
def _poly_operands(draw):
    nv = draw(st.sampled_from([1, 2, 3]))
    pa = draw(_polys(nv))
    # -pa makes the sum cancel to zero
    pb = draw(_polys(nv)) if draw(st.booleans()) else -pa
    return nv, pa, pb


def _forced(num: Poly, den: Poly) -> Scalar:
    """num/den sent through poly_gcd/_cancel by a common non-constant factor."""
    p = poly_from_str(f"x1^2 - 3*x{num.nvars} + 1", num.nvars)
    return Scalar(num * p, den * p)


@given(_poly_operands())
@settings(max_examples=150, deadline=None)
def test_polynomial_fast_path_matches_general_path(operands):
    nv, pa, pb = operands
    one = Poly.one(nv)
    a, b = Scalar.from_poly(pa), Scalar.from_poly(pb)
    q = poly_from_str(f"x{nv} + 2", nv)
    c = Scalar(pb, q)  # not a polynomial: must take the gcd path
    cases = {
        "*": (a * b, pa * pb, one),
        "+": (a + b, pa + pb, one),
        "-": (a - b, pa - pb, one),
        "* rational": (a * c, pa * pb, q),
        "+ rational": (a + c, pa * q + pb, q),
    }
    for op, (got, num, den) in cases.items():
        assert _structure(got) == _structure(_forced(num, den)), op
    for op in "*+-":
        assert _structure(cases[op][0]) == (dict(cases[op][1].items()), dict(one.items())), op
    # mixed rings still raise
    other_ring = Scalar.variable(1, nv + 1)
    for op in (lambda s, t: s * t, lambda s, t: s + t):
        for s, t in [(Scalar.from_poly(q), other_ring),
                     (Scalar.zero(nv), other_ring),
                     (Scalar.from_poly(q), Scalar.zero(nv + 1))]:
            with pytest.raises(ValueError, match="variable-count mismatch"):
                op(s, t)


@st.composite
def _scalar_operands(draw):
    nv = draw(st.sampled_from([1, 2]))
    pa, pb = draw(_polys(nv)), draw(_polys(nv))
    q = draw(st.sampled_from([None, f"x{nv} + 2", f"x1^2 - 3*x{nv} + 1"]))
    den = Poly.one(nv) if q is None else poly_from_str(q, nv)
    a = Scalar(pa, den)
    # b = 1/a, -a and a*den make *, + and the quotient cancel to a unit
    b = draw(st.sampled_from([Scalar(pb, den), -a, Scalar.from_poly(pb)]))
    if not a.is_zero() and draw(st.booleans()):
        b = a.inverse()
    return nv, pa, den, a, b


@given(_scalar_operands(), FRACTIONS)
@settings(max_examples=100, deadline=None)
def test_unit_denominator_is_the_shared_unit(operands, c):
    nv, pa, den, a, b = operands
    results = {
        "*": a * b, "+": a + b, "-": a - b,
        "derivative": a.derivative(1), "scale": a.scale(c),
        "parse": scalar_from_str(scalar_to_str(a), nv),
        "Scalar(num, den)": Scalar(pa * den, den),
    }
    if not a.is_zero():
        results["inverse"] = a.inverse()
    for op, s in results.items():
        unit = dict(s.den.items()) == {(0,) * nv: Fraction(1)}
        assert unit == (s.den is rational._UNITS.get(nv)), op


def test_zero_product_skips_the_gcd_path(monkeypatch):
    # 1/(x1 + 2) is not a polynomial, so only the zero check keeps a zero
    # product with it off the gcd path
    r = Scalar(Poly.one(1), poly_from_str("x1 + 2", 1))
    zero = Scalar.zero(1)

    def no_gcd(f, g):
        raise AssertionError("gcd computed for a zero product")

    monkeypatch.setattr(rational, "poly_gcd", no_gcd)
    for product in (zero * r, r * zero):
        assert product.is_zero() and product.is_polynomial()


def test_divexact_and_lcm():
    f = (x(1, 2) + x(2, 2)) * (x(1, 2) - x(2, 2))
    g = x(1, 2) + x(2, 2)
    assert poly_divexact(f, g) == x(1, 2) - x(2, 2)
    # the unit divisor returns f itself; other constants scale
    assert poly_divexact(f, Poly.one(2)) == f.scale(1)
    assert poly_divexact(f, Poly.const(2, 2)) == f.scale(Fraction(1, 2))
    with pytest.raises(ValueError):
        poly_divexact(x(1, 2), x(2, 2))
    lcm = poly_lcm(f, g)
    assert poly_divexact(lcm, f) is not None


def test_gcd_matches_sympy_oracle():
    rng = random.Random(5)
    for _ in range(120):
        nv = rng.randint(1, 4)
        f = random_poly(rng, nv, rng.randint(0, 3), terms=rng.randint(1, 3), bound=6)
        g = random_poly(rng, nv, rng.randint(0, 3), terms=rng.randint(1, 3), bound=6)
        if rng.random() < 0.5:
            h = random_poly(rng, nv, 2, terms=2, bound=4)
            f, g = f * h, g * h
        if f.is_zero() or g.is_zero():
            continue
        mine = to_sympy(poly_gcd(f, g))
        theirs = sympy.gcd(
            sympy.Poly(to_sympy(f), *SYMS[:nv]),
            sympy.Poly(to_sympy(g), *SYMS[:nv]),
        ).as_expr()
        ratio = sympy.simplify(mine / theirs)
        assert ratio.is_constant() and ratio != 0


def _prs_cases():
    """(f, g, h, nvars): f*h and g*h share exactly h up to a constant."""
    return [
        ("x1 + 2", "x1^2 + 3", "x1 - 1", 1),
        ("x1^3 - x1 + 5", "2*x1^2 + 7", "3*x1^2 - 4*x1 + 1", 1),
        ("x1 + x2", "x1 - x2 + 3", "x1*x2 + 1", 2),
        ("x1^2 + x2", "x2^2 - x1", "1/2*x1 + 1/3*x2^2 - 1", 2),
        ("x1 + x3", "x2^2 - x3 + 1", "x1 + x2*x3 - 2", 3),
        ("x1*x2 - x3^2", "x1 + x2 + x3", "1", 3),
        # a common factor free of the main variable x1: only the content
        # of f and g with respect to x1 carries it
        ("x1 + 3", "x1^2 + x2", "x2 + 1", 2),
        ("x1*x3 + 1", "x1^2 - x3", "x2^2*x3 + 5", 3),
    ]


@pytest.mark.parametrize("f, g, h, nv", _prs_cases())
def test_prs_gcd_matches_sympy(f, g, h, nv):
    f, g, h = (poly_from_str(t, nv) for t in (f, g, h))
    a, b = f * h, g * h
    mine = rational._prs_gcd(a, b)
    poly_divexact(a, mine)
    poly_divexact(b, mine)
    theirs = sympy.gcd(
        sympy.Poly(to_sympy(a), *SYMS[:nv]), sympy.Poly(to_sympy(b), *SYMS[:nv])
    ).as_expr()
    ratio = sympy.simplify(to_sympy(mine) / theirs)
    assert ratio.is_constant() and ratio != 0
    assert sympy.simplify(to_sympy(mine) / to_sympy(h)).is_constant()
    # normalized: coprime integer coefficients, positive leading coefficient
    assert mine.content == 1


def _fraction_evaluate(p: Poly, point) -> Fraction:
    """The Fraction loop `Poly.evaluate` ran before the integer form."""
    total = Fraction(0)
    for e, c in p.items():
        v = c
        for xv, k in zip(point, e):
            if k:
                v *= Fraction(xv) ** k
        total += v
    return total


def _fraction_specialize(f: Poly, var: int, point) -> dict:
    """The Fraction loop `_specialize_to_var` ran before the integer form."""
    out = {}
    j = var - 1
    for e, c in f.items():
        v = c
        for i, k in enumerate(e):
            if i != j and k:
                v *= Fraction(point[i]) ** k
        if v:
            s = out.get(e[j], Fraction(0)) + v
            if s:
                out[e[j]] = s
            else:
                out.pop(e[j], None)
    return out


BIG_COEFS = st.one_of(
    st.fractions(-20, 20, max_denominator=12),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
).filter(bool)

# zero, negative, non-unit denominators; spelled as int, Fraction and str
COORDINATES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(-9, 9, max_denominator=7),
    st.fractions(-9, 9, max_denominator=7).map(str),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)


@st.composite
def _evaluation_cases(draw):
    nv = draw(st.integers(0, 4))
    monos = st.tuples(*[st.integers(0, 3)] * nv)
    p = Poly.from_terms(nv, draw(st.dictionaries(monos, BIG_COEFS, max_size=6)))
    points = draw(st.lists(st.lists(COORDINATES, min_size=nv, max_size=nv),
                           min_size=1, max_size=4))
    return nv, p, points


@given(_evaluation_cases())
@settings(max_examples=300, deadline=None)
def test_integer_evaluate_matches_fraction_reference(case):
    nv, p, points = case
    # several points on one Poly: a stale cached form would show
    for point in points:
        got = p.evaluate(point)
        assert type(got) is Fraction
        assert got == _fraction_evaluate(p, point)
    assert Poly.zero(nv).evaluate(points[0]) == 0
    if not p.is_zero():
        inverse = Scalar(Poly.one(nv), p)
        for point in points:
            value = _fraction_evaluate(p, point)
            if value:
                assert inverse.evaluate(point) == 1 / value
            else:
                with pytest.raises(PoleError):
                    inverse.evaluate(point)
    if nv:
        # 1/(x1 - a) has a pole at the first point
        a = Poly.const(nv, Fraction(points[0][0]))
        with pytest.raises(PoleError):
            Scalar(Poly.one(nv), Poly.variable(1, nv) - a).evaluate(points[0])


@st.composite
def _certificate_cases(draw):
    nv = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * nv)
    coefs = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=5),
                      BIG_COEFS).filter(bool)
    f, g, h = (Poly.from_terms(nv, draw(st.dictionaries(monos, coefs, min_size=1, max_size=4)))
               for _ in range(3))
    if draw(st.booleans()):
        # an engineered common factor (a constant h leaves f and g as drawn)
        f, g = f * h, g * h
    return nv, f, g


@given(_certificate_cases(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_gcd_certificate_reads_the_integer_form(case, attempt):
    nv, f, g = case
    point = [2 + attempt + 3 * i for i in range(nv)]
    for p in (f, g):
        for var in range(1, nv + 1):
            assert p.degree_in(var) == max(e[var - 1] for e, _ in p.items())
            got = rational._specialize_to_var(p, var, point)
            assert all(type(v) is int for v in got.values())
            # the content is dropped: the integer sums of the primitive part
            assert got == {e: v / p.content
                           for e, v in _fraction_specialize(p, var, point).items()}
    if rational._gcd_certainly_trivial(f, g):
        theirs = sympy.gcd(
            sympy.Poly(to_sympy(f), *SYMS[:nv]), sympy.Poly(to_sympy(g), *SYMS[:nv])
        )
        assert theirs.total_degree() == 0


P61 = (1 << 61) - 1


def _recording_gcd_degree(monkeypatch) -> list:
    calls = []
    real = rational._univariate_gcd_degree

    def record(a, b):
        calls.append((dict(a), dict(b)))
        return real(a, b)

    monkeypatch.setattr(rational, "_univariate_gcd_degree", record)
    return calls


def test_certificate_skips_a_probe_lead_divisible_by_p(monkeypatch):
    calls = _recording_gcd_degree(monkeypatch)
    x1, x2 = x(1, 2), x(2, 2)
    # in x1 the probe's leading coefficient x2 + p - 5 is p at attempt 0
    # (x2 = 5) and p + 1 at attempt 1 (x2 = 6)
    f = (x2 + Poly.const(2, P61 - 5)) * x1 + Poly.one(2)
    assert rational._gcd_certainly_trivial(f, x1)
    assert calls[0][0] == {1: P61 + 1, 0: 1}
    # univariate: the leading coefficient p survives every attempt
    calls.clear()
    f = x(1, 1).scale(P61) + Poly.one(1)
    assert not rational._gcd_certainly_trivial(f, x(1, 1))
    assert calls == []
    assert poly_gcd(f, x(1, 1)) == Poly.one(1)


def test_certificate_is_unknown_when_images_mod_p_agree():
    f = x(1, 2) * x(2, 2) + Poly.one(2)
    g = f - Poly.const(2, P61)  # coprime over Q, equal mod p
    assert not rational._gcd_certainly_trivial(f, g)
    assert poly_gcd(f, g) == Poly.one(2)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_univariate_gcd_degree_matches_sympy(a, b, h):
    t = sympy.Symbol("t")

    def expr(coefs):
        return sum(c * t**e for e, c in enumerate(coefs))

    A, B = sympy.expand(expr(a) * expr(h)), sympy.expand(expr(b) * expr(h))
    if A == 0:
        return

    def ints(e):
        return {k: int(c) for (k,), c in sympy.Poly(e, t).terms() if c} if e != 0 else {}

    want = sympy.degree(sympy.gcd(A, B), t)
    assert rational._univariate_gcd_degree(ints(A), ints(B)) == want


@st.composite
def _shared_point_cases(draw):
    nv = draw(st.integers(0, 4))
    monos = st.tuples(*[st.integers(0, 3)] * nv)
    polys = [Poly.from_terms(nv, draw(st.dictionaries(monos, BIG_COEFS, max_size=5)))
             for _ in range(draw(st.integers(1, 4)))]
    points = draw(st.lists(st.lists(COORDINATES, min_size=nv, max_size=nv),
                           min_size=1, max_size=3))
    return nv, polys, points


@given(_shared_point_cases())
@settings(max_examples=200, deadline=None)
def test_shared_point_matches_fresh_evaluation(case):
    """One Point serves polynomials of different degrees, in both orders."""
    nv, polys, points = case
    for coords in points:
        fractions = [Fraction(c) for c in coords]
        for order in (polys, polys[::-1]):
            pt = rational.Point(coords)
            for p in order:
                want = _fraction_evaluate(p, coords)
                assert p.evaluate(pt) == p.evaluate(coords) == want
                assert p.vanishes_at(pt) == p.vanishes_at(coords) == (want == 0)
        pt = rational.Point(coords)
        scalars = [Scalar(p, q) for p, q in zip(polys, polys[1:] + polys[:1])
                   if not q.is_zero()]
        if nv:
            # 1/(x1 - c) has a pole at the point
            scalars.append(Scalar(Poly.one(nv),
                                  Poly.variable(1, nv) - Poly.const(nv, fractions[0])))
        for s in scalars:
            den = _fraction_evaluate(s.den, coords)
            if den:
                assert s.evaluate(pt) == s.evaluate(coords) == \
                    _fraction_evaluate(s.num, coords) / den
            else:
                with pytest.raises(PoleError) as shared:
                    s.evaluate(pt)
                with pytest.raises(PoleError) as fresh:
                    s.evaluate(coords)
                assert str(shared.value) == \
                    f"denominator vanishes at point {tuple(fractions)}"
                assert str(fresh.value) == \
                    f"denominator vanishes at point {tuple(coords)}"


def test_parse_exponent_limit():
    limit = rational.MAX_EXPONENT
    assert poly_from_str(f"x1^{limit}*x2", 2).degree_in(1) == limit
    for text in (f"x1^{limit + 1}", f"x2*x1^{limit}*x1", "x1^100000000 + 1"):
        with pytest.raises(ValueError, match=f"exceeds {limit}"):
            poly_from_str(text, 2)


# -- the one-pass parser -------------------------------------------------------


@st.composite
def _grammar_strings(draw):
    """A string of the polynomial grammar and its variable count."""
    nv = draw(st.integers(1, 4))
    parts = []
    for t in range(draw(st.integers(1, 5))):
        # a sign run opens every term but the first, which may have none
        runs = ["+", "-", "--", "+-", "-+-", "- ", " + "]
        signs = draw(st.sampled_from(runs + [""] if t == 0 else runs))
        factors = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                a = draw(st.integers(0, 30))
                b = draw(st.one_of(st.none(), st.integers(1, 12)))
                factors.append(f"{a}" if b is None else f"{a} / {b}")
            else:
                i = draw(st.integers(1, nv))
                e = draw(st.one_of(st.none(), st.integers(0, 6)))
                factors.append(f"x{i}" if e is None else f"x{i}^{e}")
        parts.append(signs + draw(st.sampled_from(["*", " * "])).join(factors))
    return "".join(parts), nv


@given(_grammar_strings())
@settings(max_examples=300, deadline=None)
def test_parse_matches_sympy(case):
    text, nv = case
    theirs = sympy.Poly(sympy.sympify(text.replace(" ", "").replace("^", "**")),
                        *SYMS[:nv])
    assert sympy.Poly(to_sympy(poly_from_str(text, nv)), *SYMS[:nv]) == theirs


@pytest.mark.parametrize("literal, value", [
    ("-0", 0), ("007", 7), ("3/6", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)),
    ("--3/4", Fraction(3, 4)), ("+ - 5", -5), ("1/0", None),
])
def test_literal_fast_path_matches_general_path(literal, value):
    # a factor x1^0 keeps the same value off the fast path
    general = literal + "*x1^0"
    if value is None:
        for text in (literal, general):
            with pytest.raises(ValueError) as exc:
                poly_from_str(text, 2)
            assert str(exc.value) == f"zero denominator in '1/0' in polynomial {text!r}"
        return
    fast = poly_from_str(literal, 2)
    assert fast == poly_from_str(general, 2) == Poly.const(2, value)
    assert fast.is_constant() and fast.ip == poly_from_str(general, 2).ip


# The messages of the parser, as the character-by-character tokenizer
# before the one-pass parser gave them.
_MALFORMED = [
    ("", 2, "empty polynomial string"),
    ("   ", 2, "empty polynomial string"),
    ("+", 2, "trailing sign in polynomial string '+'"),
    ("x1 -", 2, "trailing sign in polynomial string 'x1 -'"),
    ("x1 + - ", 2, "trailing sign in polynomial string 'x1 + - '"),
    ("y - x1 +", 2, "trailing sign in polynomial string 'y - x1 +'"),
    ("x3", 2, "variable x3 out of range in 'x3'"),
    ("x0", 2, "variable x0 out of range in 'x0'"),
    ("x01 + x9", 2, "variable x9 out of range in 'x01 + x9'"),
    ("2*x1", 0, "variable x1 out of range in '2*x1'"),
    ("x1^", 2, "bad factor 'x1^' in polynomial 'x1^'"),
    ("x1^x2", 2, "bad factor 'x1^x2' in polynomial 'x1^x2'"),
    ("x1**x2", 2, "bad factor '' in polynomial 'x1**x2'"),
    ("*x1", 2, "bad factor '' in polynomial '*x1'"),
    ("x1*", 2, "bad factor '' in polynomial 'x1*'"),
    ("x1*-x2 + 1", 2, "bad factor '-x2' in polynomial 'x1*-x2 + 1'"),
    ("x1^-2", 2, "bad factor 'x1^-2' in polynomial 'x1^-2'"),
    ("3/-4", 2, "bad factor '3/-4' in polynomial '3/-4'"),
    ("-3/+4*x1", 2, "bad factor '3/+4' in polynomial '-3/+4*x1'"),
    ("x1*+-2", 2, "bad factor '+' in polynomial 'x1*+-2'"),
    ("y1", 2, "bad factor 'y1' in polynomial 'y1'"),
    ("2x1", 2, "bad factor '2x1' in polynomial '2x1'"),
    ("x1x2", 2, "bad factor 'x1x2' in polynomial 'x1x2'"),
    ("1.5", 2, "bad factor '1.5' in polynomial '1.5'"),
    ("1/2/3", 2, "bad factor '1/2/3' in polynomial '1/2/3'"),
    ("(x1)", 2, "bad factor '(x1)' in polynomial '(x1)'"),
    ("x1\t+1", 2, "bad factor 'x1\\t' in polynomial 'x1\\t+1'"),
    ("1/0", 2, "zero denominator in '1/0' in polynomial '1/0'"),
    (" - 1 / 0 ", 2, "zero denominator in '1/0' in polynomial ' - 1 / 0 '"),
    ("x1*3/0", 2, "zero denominator in '3/0' in polynomial 'x1*3/0'"),
    ("0/0*x9", 2, "zero denominator in '0/0' in polynomial '0/0*x9'"),
    ("x9*0/0", 2, "variable x9 out of range in 'x9*0/0'"),
    ("x1^65", 2, "exponent 65 of x1 exceeds 64 in polynomial 'x1^65'"),
    ("x1^40*x1^25", 2, "exponent 65 of x1 exceeds 64 in polynomial 'x1^40*x1^25'"),
    ("x2*x1^64*x1", 2, "exponent 65 of x1 exceeds 64 in polynomial 'x2*x1^64*x1'"),
]


@pytest.mark.parametrize("text, nv, message", _MALFORMED)
def test_parse_malformed_messages(text, nv, message):
    with pytest.raises(ValueError) as exc:
        poly_from_str(text, nv)
    assert str(exc.value) == message


def test_parse_term_limit_edges():
    limit = rational.MAX_TERMS
    full = "+".join(["x1"] * limit)  # read, as test_cli_run_too_many_terms shows
    # the sign after the last allowed term starts one more
    for text in (full + " -", full + "+x1", "+".join(["y"] * limit) + "+"):
        with pytest.raises(ValueError, match=f"^more than {limit} terms"):
            poly_from_str(text, 1)
    with pytest.raises(ValueError, match="^trailing sign"):
        poly_from_str("x1+" * (limit - 1), 1)


def test_parse_exponent_and_degree_edges():
    limit = rational.MAX_EXPONENT
    assert poly_from_str(f"x1^{limit // 2}*x2*x1^{limit // 2}", 2) == \
        Poly.from_terms(2, {(limit, 1): 1})
    # MAX_EXPONENT in each of 511 variables stays inside the degree slot
    top = "*".join(f"x{i}^{limit}" for i in range(1, 512))
    assert poly_from_str(f"{top} - 1", 511) == \
        Poly.from_terms(511, {(limit,) * 511: 1, (0,) * 511: -1})
    # one more variable would carry out of it
    top = "*".join(f"x{i}^{limit}" for i in range(1, 513))
    with pytest.raises(OverflowError, match=f"exceeds {rational.MAX_DEGREE}"):
        poly_from_str(top, 512)
    # unless its terms cancel before they are packed
    assert poly_from_str(f"{top} - {top}", 512).is_zero()
    assert poly_from_str(f"0*{top}", 512).is_zero()


@pytest.mark.parametrize("text", [
    "x1\n*x2", "-x1\n", "3\n", "x1 +\n 1", "\u0663*x1", "x\u0661", "1/\u0663",
])
def test_parse_grammar_is_ascii_without_line_breaks(text):
    with pytest.raises(ValueError, match="bad factor"):
        poly_from_str(text, 2)
    with pytest.raises(ValueError, match="bad factor"):
        scalar_from_str(text, 2)


# -- the packed canonical form -----------------------------------------------------


@st.composite
def _sympy_cases(draw):
    nv = draw(st.integers(1, 5))
    monos = st.tuples(*[st.integers(0, 2)] * nv)
    coefs = st.fractions(-9, 9, max_denominator=6).filter(bool)
    f, g, h = (Poly.from_terms(nv, draw(st.dictionaries(monos, coefs, max_size=4)))
               for _ in range(3))
    point = draw(st.lists(st.fractions(-5, 5, max_denominator=4),
                          min_size=nv, max_size=nv))
    return nv, f, g, h, point, draw(st.integers(1, nv))


@given(_sympy_cases())
@settings(max_examples=120, deadline=None)
def test_packed_poly_matches_sympy(case):
    nv, f, g, h, point, var = case
    gens = SYMS[:nv]

    def sp(p):
        return sympy.Poly(to_sympy(p), *gens, domain=sympy.QQ)

    assert sp(f * g) == sp(f) * sp(g)
    assert sp(f + g) == sp(f) + sp(g)
    assert sp(f - g) == sp(f) - sp(g)
    assert sp(f.derivative(var)) == sp(f).diff(gens[var - 1])
    subs = dict(zip(gens, (sympy.Rational(x.numerator, x.denominator) for x in point)))
    assert f.evaluate(point) == sympy.sympify(to_sympy(f)).subs(subs)
    if not h.is_zero():
        assert poly_divexact(f * h, h) == f
        _, rem = sympy.div(sp(f), sp(h))
        if rem.is_zero:
            assert sp(poly_divexact(f, h)) * sp(h) == sp(f)
        else:
            with pytest.raises(ValueError):
                poly_divexact(f, h)
        if not (f.is_zero() or g.is_zero()):
            mine = sp(poly_gcd(f * h, g * h))
            assert mine.monic() == sympy.gcd(sp(f * h), sp(g * h)).monic()
            # normalized: coprime integer coefficients, positive leading one
            assert mine.LC(order="grlex") > 0
            assert poly_gcd(f * h, g * h).content == 1


@pytest.mark.parametrize("f, g, nv", [
    ("x1", "x2", 2),
    ("x1^2*x3", "x2*x3", 3),
    ("x1*x2^2", "x1^2", 2),
    ("x2^3 + x1", "x1*x3", 3),
])
def test_divexact_refuses_a_borrowing_monomial(f, g, nv):
    # the leading key of f minus that of g is positive, but the monomial
    # difference has a negative exponent: a slot borrows
    f, g = poly_from_str(f, nv), poly_from_str(g, nv)
    assert max(f.ip) - max(g.ip) > 0
    with pytest.raises(ValueError, match="inexact"):
        poly_divexact(f, g)


def test_degree_beyond_the_top_slot_is_refused():
    top = rational.MAX_DEGREE
    x1 = Poly.variable(1, 3)
    high = Poly.from_terms(3, {(top - 1, 0, 0): 1})
    # degree MAX_DEGREE fits and reads back exactly
    assert (high * x1).items() == [((top, 0, 0), Fraction(1))]
    assert (high * x1).degree_in(1) == top
    for make in (lambda: high * x1 * x1,
                 lambda: (high * x1) * Poly.variable(3, 3),
                 lambda: Poly.from_terms(3, {(top, 0, 1): 1})):
        with pytest.raises(OverflowError, match=f"degree exceeds {top}"):
            make()


@pytest.mark.parametrize("nv, terms", [
    (3, {(2, 0, 1): Fraction(-3, 2), (0, 1, 0): Fraction(5), (0, 0, 0): Fraction(1, 3)}),
    (2, {(1, 1): Fraction(-4), (2, 0): Fraction(-6), (0, 0): Fraction(2)}),
    (1, {(0,): Fraction(-7, 3)}),
    (4, {(1, 0, 0, 2): Fraction(2, 9), (0, 3, 0, 0): Fraction(-1, 6)}),
    (2, {}),
    (2, {(1, 0): Fraction(0)}),
])
def test_sum_and_terms_build_one_canonical_form(nv, terms):
    from_terms = Poly.from_terms(nv, terms)
    as_sum = Poly.zero(nv)
    for e, c in terms.items():
        as_sum = as_sum + Poly.from_terms(nv, {e: c})
    as_product = Poly.from_terms(nv, terms) * Poly.one(nv)
    parsed = poly_from_str(poly_to_str(from_terms), nv)
    for p in (as_sum, as_product, parsed):
        assert p == from_terms and hash(p) == hash(from_terms)
        assert p.content == from_terms.content and p.ip == from_terms.ip
    nonzero = {e: c for e, c in terms.items() if c}
    assert dict(from_terms.items()) == nonzero
    assert from_terms.is_zero() == (not nonzero)
    if nonzero:
        # the primitive part leads with a positive coefficient; the sign
        # of the leading coefficient sits in the content
        assert from_terms.ip[max(from_terms.ip)] > 0
        lead = from_terms.items()[0][1]
        assert (from_terms.content < 0) == (lead < 0)
    assert from_terms - as_sum == Poly.zero(nv)
    assert hash(from_terms - as_sum) == hash(Poly.zero(nv))


@pytest.mark.parametrize("nv, terms, text", [
    (3, {(3, 1, 0): 2, (0, 1, 0): -1, (0, 0, 0): Fraction(1, 2)},
     "2*x1^3*x2 - x2 + 1/2"),
    (3, {(1, 0, 0): 1, (0, 2, 0): -1, (0, 0, 1): Fraction(3, 4),
         (1, 1, 0): Fraction(-2, 3)},
     "-2/3*x1*x2 - x2^2 + x1 + 3/4*x3"),
    (2, {(0, 0): Fraction(-7, 3)}, "-7/3"),
    (4, {(0, 0, 0, 1): -1, (0, 0, 1, 0): 1, (0, 1, 0, 0): Fraction(-5, 2),
         (1, 0, 0, 0): 6, (1, 0, 0, 1): Fraction(-1, 9), (0, 1, 1, 0): 1},
     "-1/9*x1*x4 + x2*x3 + 6*x1 - 5/2*x2 + x3 - x4"),
    (5, {(2, 0, 0, 0, 1): Fraction(4, 3), (0, 0, 3, 0, 0): -1,
         (1, 1, 1, 0, 0): 1, (0, 0, 0, 0, 0): -12},
     "4/3*x1^2*x5 + x1*x2*x3 - x3^3 - 12"),
])
def test_printed_terms_follow_graded_lex_order(nv, terms, text):
    # strings printed by the tuple-keyed representation for the same terms
    assert poly_to_str(Poly.from_terms(nv, terms)) == text


# -- canonical fractions --------------------------------------------------------


def test_scalar_canonical_form():
    two_x_over_four = Scalar(x(1, 2).scale(2), Poly.const(2, 4))
    x_over_two = Scalar(x(1, 2), Poly.const(2, 2))
    assert two_x_over_four == x_over_two
    assert hash(two_x_over_four) == hash(x_over_two)
    # denominator normalized to integer primitive, positive leading coefficient
    s = Scalar(x(1, 2), -x(2, 2))
    assert poly_to_str(s.den) == "x2"
    assert poly_to_str(s.num) == "-x1"


def test_scalar_field_axioms():
    rng = random.Random(11)
    for _ in range(40):
        nv = 3
        a = Scalar(random_poly(rng, nv, 2, 2, 5), _nonzero(rng, nv))
        b = Scalar(random_poly(rng, nv, 2, 2, 5), _nonzero(rng, nv))
        c = Scalar(random_poly(rng, nv, 2, 2, 5), _nonzero(rng, nv))
        assert (a + b) * c == a * c + b * c
        assert a - a == Scalar.zero(nv)
        if not b.is_zero():
            assert (a / b) * b == a


def _nonzero(rng, nv):
    while True:
        p = random_poly(rng, nv, 2, 2, 5)
        if not p.is_zero():
            return p


def test_derivative_quotient_rule_vs_sympy():
    rng = random.Random(23)
    for _ in range(30):
        nv = 3
        s = Scalar(random_poly(rng, nv, 3, 2, 6), _nonzero(rng, nv))
        i = rng.randint(1, nv)
        mine = s.derivative(i)
        theirs = sympy.diff(
            to_sympy(s.num) / to_sympy(s.den), SYMS[i - 1]
        )
        got = to_sympy(mine.num) / to_sympy(mine.den)
        assert sympy.simplify(got - theirs) == 0


def test_evaluate_and_poles():
    one = Poly.one(2)
    s = Scalar(one, one - x(1, 2))
    assert s.evaluate([Fraction(1, 2), Fraction(0)]) == 2
    with pytest.raises(PoleError):
        s.evaluate([Fraction(1), Fraction(0)])


def test_scalar_string_roundtrip():
    s = scalar_from_str("(3/2*x1^2 - x2 + 1)/(x1 + 1)", 2)
    assert scalar_from_str(scalar_to_str(s), 2) == s
    t = scalar_from_str("x1 - 5", 2)
    assert t.is_polynomial()


def test_positive_pattern():
    assert is_positive_pattern(poly_from_str("1 + x1^2", 2))
    assert is_positive_pattern(poly_from_str("2 + 3*x1^2*x2^4", 2))
    assert not is_positive_pattern(poly_from_str("x1^2", 2))  # no constant
    assert not is_positive_pattern(poly_from_str("1 + x1", 2))  # odd power
    assert not is_positive_pattern(poly_from_str("1 - x1^2", 2))  # sign
    # near-misses: each has a rational zero, so neither certificate may accept it
    near_misses = {
        "1 + x1^2 - x2^2": (0, 1),
        "1 + x1^3": (-1, 0),
        "1 + x1*x2": (1, -1),
        "1 + x1^2*x2": (1, -1),
        "x1^2 + x2^2": (0, 0),
    }
    for text, zero in near_misses.items():
        p = poly_from_str(text, 2)
        assert p.evaluate([Fraction(v) for v in zero]) == 0, text
        assert not is_positive_pattern(p), text
        assert not is_definite(p), text
    assert is_definite(poly_from_str("-1 - x1^2", 2))
    assert scalar_is_definite(scalar_from_str("(1 + x1^2)/(2 + x2^2)", 2))
    assert not scalar_is_definite(scalar_from_str("(x1)/(1 + x2^2)", 2))


def test_pattern_soundness_no_rational_zero():
    rng = random.Random(3)
    p = poly_from_str("1 + x1^2 + 2*x1^2*x2^2", 2)
    assert is_positive_pattern(p)
    for _ in range(200):
        pt = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(2)]
        assert p.evaluate(pt) > 0


def test_gcd_heuristic_stacked_factors():
    """Dense stacked common factors must cancel exactly (heuristic + fallback)."""
    rng = random.Random(17)
    for _ in range(25):
        nv = rng.randint(2, 5)
        h = random_poly(rng, nv, rng.randint(1, 3), terms=3, bound=6)
        if h.is_zero():
            continue
        f = random_poly(rng, nv, 2, terms=3, bound=6) * h
        g = random_poly(rng, nv, 2, terms=3, bound=6) * h
        if f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(f, g)
        # the engineered factor divides the gcd, the gcd divides both,
        # and the cofactors are coprime
        h_prim = poly_gcd(h, h)  # primitive normalization of h
        poly_divexact(d, h_prim)
        qf, qg = poly_divexact(f, d), poly_divexact(g, d)
        assert poly_gcd(qf, qg).is_constant()


def test_derivative_shared_denominator_factors():
    """d(n/d) with gcd(d, d') != 1 stays fast and exact (gcd-extracted rule)."""
    n3 = 3
    d = poly_from_str("x1^2*x2 + x1*x2", n3)  # = x1*x2*(x1+1), not squarefree-friendly
    num = poly_from_str("x3 + 1", n3)
    s = Scalar(num, d)
    ds = s.derivative(1)
    theirs = sympy.diff(to_sympy(s.num) / to_sympy(s.den), SYMS[0])
    got = to_sympy(ds.num) / to_sympy(ds.den)
    assert sympy.simplify(got - theirs) == 0
