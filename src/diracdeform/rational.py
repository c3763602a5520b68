"""Exact scalar arithmetic: multivariate polynomials over Q and their fraction field.

Every coefficient in this package is a ``Scalar``: a reduced fraction of
polynomials with rational coefficients.  The zero-variable case is plain Q,
so the same code serves pointwise (rational) and symbolic (rational-function)
computations.

Canonical form of a Scalar:
  * numerator and denominator share no polynomial factor (gcd is a unit),
  * the denominator has integer, coprime coefficients and a positive leading
    coefficient under graded-lex order.
Structural equality of canonical forms is mathematical equality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class PoleError(ZeroDivisionError):
    """Evaluation at a point where a denominator vanishes."""


_ZERO = Fraction(0)
_ONE = Fraction(1)

# The denominator of every polynomial Scalar: `Poly.one`, and so the
# constructors, the fast path and `_cancel`, all return it, so recognising a
# polynomial is an identity test.  Sharing is safe because no operation
# mutates a Poly.
_UNITS: dict[int, "Poly"] = {}


class Poly:
    """Sparse multivariate polynomial over Q.

    terms maps exponent tuples (one slot per variable) to nonzero Fractions.
    Instances are immutable by convention; no operation modifies its operands.
    That is what makes the hash and the integer form safe to cache.
    """

    __slots__ = ("nvars", "terms", "_hash", "_int")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Fraction]):
        self.nvars = nvars
        self.terms = terms
        self._hash: int | None = None
        self._int: _IntegerForm | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        if type(c) is not Fraction:
            c = Fraction(c)
        if c == 0:
            return Poly(nvars, {})
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def one(nvars: int) -> "Poly":
        """The unit polynomial; one shared instance per variable count."""
        unit = _UNITS.get(nvars)
        if unit is None:
            unit = _UNITS[nvars] = Poly(nvars, {(0,) * nvars: _ONE})
        return unit

    @staticmethod
    def variable(i: int, nvars: int) -> "Poly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exp = [0] * nvars
        exp[i - 1] = 1
        return Poly(nvars, {tuple(exp): _ONE})

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        """Degree in variable x_i (1-based); 0 for the zero polynomial."""
        return self._integer_form().degrees[i - 1]

    def _integer_form(self) -> "_IntegerForm":
        form = self._int
        if form is None:
            form = self._int = _IntegerForm(self)
        return form

    def coefficient(self, exponents: tuple[int, ...]) -> Fraction:
        return self.terms.get(exponents, _ZERO)

    # -- ring operations -----------------------------------------------------

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        if not self.terms or not other.terms:
            return Poly(self.nvars, {})
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.nvars, out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly(self.nvars, {})
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def pow(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus ------------------------------------------------------------

    def derivative(self, i: int) -> "Poly":
        """Partial derivative with respect to x_i (1-based)."""
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k == 0:
                continue
            e2 = list(e)
            e2[i - 1] = k - 1
            key = tuple(e2)
            s = out.get(key, _ZERO) + c * k
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Poly(self.nvars, out)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """The exact value at a rational point (ints, Fractions or strings).

        With x_i = p_i/q_i and D_i the degree in x_i, the value is
        sum c_e prod p_i^e_i q_i^(D_i - e_i) over L prod q_i^D_i, where the
        c_e are the integer numerators over the common denominator L.
        """
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        form = self._integer_form()
        den = form.den
        tables = []
        for i in form.active:
            x = point[i]
            if type(x) is not Fraction:
                x = Fraction(x)
            table = _power_table(x.numerator, x.denominator, form.degrees[i])
            tables.append(table)
            den *= table[0]  # q_i^D_i
        total = 0
        for c, e in form.terms:
            for t, k in zip(tables, e):
                c *= t[k]
            total += c
        return Fraction(total, den)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Poly({poly_to_str(self)!r})"

    # -- graded-lex leading data ----------------------------------------------

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]


class _IntegerForm:
    """A Poly over one integer denominator, filled once and cached on it.

    den: the lcm of the coefficient denominators.
    degrees: the degree in each variable.
    active: the variables of positive degree, 0-based and ascending.
    terms: per term, its integer numerator over den and its exponents in
    the active variables.
    """

    __slots__ = ("den", "active", "degrees", "terms")

    def __init__(self, p: Poly):
        den = 1
        for c in p.terms.values():
            if c.denominator != 1:
                den = lcm(den, c.denominator)
        self.den = den
        self.degrees = (
            tuple(map(max, zip(*p.terms))) if p.terms else (0,) * p.nvars
        )
        self.active = active = tuple(i for i, d in enumerate(self.degrees) if d)
        self.terms = [
            (c.numerator * (den // c.denominator), tuple(e[i] for i in active))
            for e, c in p.terms.items()
        ]


def _power_table(p: int, q: int, degree: int) -> list[int]:
    """[p^k q^(degree - k) for k = 0..degree]."""
    table = [1] * (degree + 1)
    for k in range(1, degree + 1):
        table[k] = table[k - 1] * p
    if q != 1:
        r = q
        for k in range(degree - 1, -1, -1):
            table[k] *= r
            r *= q
    return table


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


# ---------------------------------------------------------------------------
# Division, gcd, and content
# ---------------------------------------------------------------------------


def poly_divexact(f: Poly, g: Poly) -> Poly:
    """Exact division f / g; raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return Poly.zero(f.nvars)
    if g.is_constant():
        c = g.constant_value()
        return f if c == 1 else f.scale(1 / c)
    q: dict[tuple[int, ...], Fraction] = {}
    rem = f
    g_lm = g.leading_monomial()
    g_lc = g.terms[g_lm]
    while not rem.is_zero():
        lm = rem.leading_monomial()
        diff = tuple(a - b for a, b in zip(lm, g_lm))
        if any(d < 0 for d in diff):
            raise ValueError("inexact polynomial division")
        c = rem.terms[lm] / g_lc
        q[diff] = c
        rem = rem - Poly(f.nvars, {diff: c}) * g
    return Poly(f.nvars, q)


def _content(f: Poly) -> Fraction:
    """Positive rational c with f/c having coprime integer coefficients.

    Sign convention: c carries the sign of the graded-lex leading coefficient,
    so f/c always has positive leading coefficient.
    """
    if f.is_zero():
        return _ONE
    num = 0
    den = 1
    for c in f.terms.values():
        num = gcd(num, abs(c.numerator))
        den = lcm(den, c.denominator)
    content = Fraction(num, den)
    if f.leading_coefficient() < 0:
        content = -content
    return content


def _poly_content_wrt(f: Poly, var: int) -> Poly:
    """Gcd of the coefficients of f viewed as univariate in x_var."""
    coeffs = _coeffs_wrt(f, var)
    g = Poly.zero(f.nvars)
    for c in coeffs.values():
        g = poly_gcd(g, c)
        if g.is_constant() and not g.is_zero():
            break
    return g


def _coeffs_wrt(f: Poly, var: int) -> dict[int, Poly]:
    """Split f by the exponent of x_var; coefficients keep nvars slots."""
    out: dict[int, dict[tuple[int, ...], Fraction]] = {}
    j = var - 1
    for e, c in f.terms.items():
        k = e[j]
        e2 = list(e)
        e2[j] = 0
        out.setdefault(k, {})[tuple(e2)] = c
    return {k: Poly(f.nvars, t) for k, t in out.items()}


def _pseudo_rem(f: Poly, g: Poly, var: int) -> Poly:
    """Pseudo-remainder of f by g as univariate polynomials in x_var."""
    nvars = f.nvars
    gc = _coeffs_wrt(g, var)
    dg = max(gc)
    lead_g = gc[dg]
    xvar = Poly.variable(var, nvars)
    rem = f
    while not rem.is_zero():
        rc = _coeffs_wrt(rem, var)
        dr = max(rc)
        if dr < dg:
            break
        lead_r = rc[dr]
        rem = rem * lead_g - g * lead_r * xvar.pow(dr - dg)
    return rem


def _univariate_gcd_degree(
    a: dict[int, Fraction], b: dict[int, Fraction]
) -> int:
    """Degree of gcd of two univariate polynomials given as exponent->coef."""
    fa = dict(a)
    fb = dict(b)
    while fb:
        da = max(fa) if fa else -1
        db = max(fb)
        if da < db:
            fa, fb = fb, fa
            continue
        lc = fb[db]
        top = fa.pop(da)
        ratio = top / lc
        for e, c in fb.items():
            if e == db:
                continue
            k = e + da - db
            s = fa.get(k, _ZERO) - ratio * c
            if s:
                fa[k] = s
            else:
                fa.pop(k, None)
        if not fa:
            fa, fb = fb, {}
            break
        if max(fa) >= db:
            continue
        fa, fb = fb, fa
    return max(fa) if fa else 0


def _specialize_to_var(f: Poly, var: int, point: Sequence[int]) -> dict[int, Fraction]:
    """Evaluate all variables but x_var at integers, returning a univariate poly."""
    form = f._integer_form()
    j = var - 1
    slot = form.active.index(j) if j in form.active else None
    # x_var keeps its exponent: its table is all ones
    tables = [
        _power_table(1 if i == j else point[i], 1, form.degrees[i])
        for i in form.active
    ]
    sums: dict[int, int] = {}
    for c, e in form.terms:
        for t, k in zip(tables, e):
            c *= t[k]
        k = 0 if slot is None else e[slot]
        sums[k] = sums.get(k, 0) + c
    return {k: Fraction(c, form.den) for k, c in sums.items() if c}


def _gcd_certainly_trivial(f: Poly, g: Poly) -> bool:
    """Sound fast test that gcd(f, g) is constant.

    For each variable, deg_x(gcd) <= deg(gcd of univariate specializations)
    whenever the specialization preserves deg_x(f).  If every variable bound
    is zero the gcd is a unit.  Returning False just means "unknown".
    """
    nv = f.nvars
    for var in range(1, nv + 1):
        df = f.degree_in(var)
        dg = g.degree_in(var)
        if df == 0 and dg == 0:
            continue
        probe, dprobe = (f, df) if df and (df <= dg or dg == 0) else (g, dg)
        if dprobe == 0:
            probe, dprobe = (f, df) if df else (g, dg)
        bounded = False
        for attempt in range(4):
            point = [2 + attempt + 3 * i for i in range(nv)]
            a = _specialize_to_var(probe, var, point)
            if not a or max(a) != dprobe:
                continue  # leading coefficient vanished; bound invalid
            other = g if probe is f else f
            b = _specialize_to_var(other, var, point)
            if not b:
                continue
            if _univariate_gcd_degree(a, b) == 0:
                bounded = True
                break
        if not bounded:
            return False
    return True


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Gcd in Q[x1..xn], normalized primitive with positive leading coefficient.

    Strategy: a sound univariate-specialization test dispatches the common
    coprime case; the integer-evaluation heuristic (digit reconstruction at a
    large point, verified by exact division and by cofactor coprimality)
    handles most nontrivial gcds; primitive PRS on a minimal-degree main
    variable is the unconditional fallback.  Nonzero constants are units, so
    gcd(f, const) = 1.
    """
    if f.nvars != g.nvars:
        raise ValueError("variable-count mismatch")
    if f.is_zero():
        return _normalize_primitive(g)
    if g.is_zero():
        return _normalize_primitive(f)
    if f.is_constant() or g.is_constant():
        return Poly.one(f.nvars)
    if _gcd_certainly_trivial(f, g):
        return Poly.one(f.nvars)
    heuristic = _heuristic_gcd(f, g)
    if heuristic is not None:
        return heuristic
    return _prs_gcd(f, g)


def _prs_gcd(f: Poly, g: Poly) -> Poly:
    var = _main_variable(f, g)
    cf = _poly_content_wrt(f, var)
    cg = _poly_content_wrt(g, var)
    cont = poly_gcd(cf, cg)
    a = poly_divexact(f, cf)
    b = poly_divexact(g, cg)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b, var)
        if r.is_zero():
            break
        r = poly_divexact(r, _poly_content_wrt(r, var))
        a, b = b, r
        if b.degree_in(var) == 0:
            b = Poly.one(f.nvars)
            break
    return _normalize_primitive(cont * b)


# ---------------------------------------------------------------------------
# Heuristic gcd: evaluate at a large integer, reconstruct digits, verify.
# ---------------------------------------------------------------------------


def _eval_main_var(f: Poly, var: int, xi: int) -> Poly:
    """Substitute x_var = xi, folding its powers into the coefficients."""
    j = var - 1
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in f.terms.items():
        v = c * xi ** e[j] if e[j] else c
        e2 = list(e)
        e2[j] = 0
        key = tuple(e2)
        s = out.get(key, _ZERO) + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return Poly(f.nvars, out)


def _smod(a: int, m: int) -> int:
    r = a % m
    return r - m if 2 * r > m else r


def _poly_smod(f: Poly, xi: int) -> Poly:
    """Coefficient-wise symmetric remainder mod xi (coefficients are ints)."""
    out = {}
    for e, c in f.terms.items():
        r = _smod(int(c), xi)
        if r:
            out[e] = Fraction(r)
    return Poly(f.nvars, out)


def _heuristic_gcd_raw(f: Poly, g: Poly, depth: int) -> Poly | None:
    """Gcd of primitive integer polynomials by evaluation/reconstruction.

    Returns a verified common divisor h with coprime cofactors certified by
    the caller, or None when the heuristic gives up.
    """
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.is_constant() or g.is_constant():
        return Poly.one(f.nvars)
    if depth > 8:
        return None
    var = _main_variable(f, g)
    norm = min(_max_abs_coeff(f), _max_abs_coeff(g))
    xi = 2 * int(norm) + 29
    for _ in range(6):
        fe = _eval_main_var(f, var, xi)
        ge = _eval_main_var(g, var, xi)
        if fe.is_zero() or ge.is_zero():
            xi = _next_xi(xi)
            continue
        if fe.is_constant() and ge.is_constant():
            h_eval = Poly.const(
                f.nvars, gcd(int(abs(fe.constant_value())),
                             int(abs(ge.constant_value())))
            )
        else:
            h_eval = _heuristic_gcd_raw(
                _normalize_primitive(fe), _normalize_primitive(ge), depth + 1
            )
            if h_eval is None:
                xi = _next_xi(xi)
                continue
            # the gcd of the evaluations also carries the integer gcd of
            # the evaluated contents
            h_eval = _scale_to_eval_gcd(h_eval, fe, ge, f.nvars)
        h = _reconstruct(h_eval, var, xi, f.nvars)
        if h is not None and not h.is_zero():
            h = _normalize_primitive(h)
            try:
                poly_divexact(f, h)
                poly_divexact(g, h)
            except ValueError:
                h = None
            if h is not None:
                return h
        xi = _next_xi(xi)
    return None


def _scale_to_eval_gcd(h_eval: Poly, fe: Poly, ge: Poly, nvars: int) -> Poly:
    """Scale the recursive gcd by the integer gcd of remaining contents."""
    cf = _integer_content(fe)
    cg = _integer_content(ge)
    ch = _integer_content(h_eval)
    extra = gcd(cf, cg)
    if ch == 0:
        return h_eval
    return h_eval.scale(Fraction(extra, ch)) if extra != ch else h_eval


def _integer_content(f: Poly) -> int:
    c = 0
    for v in f.terms.values():
        c = gcd(c, abs(int(v)))
    return c


def _max_abs_coeff(f: Poly) -> Fraction:
    return max(abs(c) for c in f.terms.values())


def _next_xi(xi: int) -> int:
    return 2 * xi + 29


def _reconstruct(gamma: Poly, var: int, xi: int, nvars: int) -> Poly | None:
    """Rebuild a polynomial in x_var from its base-xi digit expansion."""
    h = Poly.zero(nvars)
    e = 0
    j = var - 1
    limit = 80
    while not gamma.is_zero():
        digit = _poly_smod(gamma, xi)
        if not digit.is_zero():
            terms = {}
            for exps, c in digit.terms.items():
                e2 = list(exps)
                e2[j] += e
                terms[tuple(e2)] = c
            h = h + Poly(nvars, terms)
        gamma = (gamma - digit).scale(Fraction(1, xi))
        if any(c.denominator != 1 for c in gamma.terms.values()):
            return None
        e += 1
        if e > limit:
            return None
    return h


def _heuristic_gcd(f: Poly, g: Poly) -> Poly | None:
    """Full heuristic pipeline with rigorous confirmation.

    Accumulates verified common divisors until the cofactors are *provably*
    coprime (via the specialization bound test); anything unresolved falls
    back to the caller's PRS path on the reduced cofactors.
    """
    a = _normalize_primitive(f)
    b = _normalize_primitive(g)
    acc = Poly.one(f.nvars)
    for _ in range(4):
        h = _heuristic_gcd_raw(a, b, 0)
        if h is None:
            if acc.is_constant():
                return None
            return _normalize_primitive(acc * _prs_gcd(a, b))
        acc = acc * h
        if h.is_constant():
            return _normalize_primitive(acc)
        a = poly_divexact(a, h)
        b = poly_divexact(b, h)
        if a.is_constant() or b.is_constant():
            return _normalize_primitive(acc)
        if _gcd_certainly_trivial(a, b):
            return _normalize_primitive(acc)
    return _normalize_primitive(acc * _prs_gcd(a, b))


def _main_variable(f: Poly, g: Poly) -> int:
    """The variable of smallest positive joint degree (tames PRS growth)."""
    best = None
    best_deg = None
    for i in range(1, f.nvars + 1):
        d = max(f.degree_in(i), g.degree_in(i))
        if d > 0 and (best_deg is None or d < best_deg):
            best, best_deg = i, d
    if best is None:
        raise AssertionError("no main variable for constant polynomials")
    return best


def _normalize_primitive(f: Poly) -> Poly:
    if f.is_zero():
        return f
    return f.scale(1 / _content(f))


def poly_lcm(f: Poly, g: Poly) -> Poly:
    if f.is_zero() or g.is_zero():
        return Poly.zero(f.nvars)
    return _normalize_primitive(poly_divexact(f * g, poly_gcd(f, g)))


# ---------------------------------------------------------------------------
# Scalar: the fraction field
# ---------------------------------------------------------------------------


class Scalar:
    """Reduced fraction of polynomials; canonical and hashable.

    Use `Scalar.const`, `Scalar.variable`, or `Scalar.parse` to build values;
    the constructor assumes already-canonical input when ``_canonical=True``.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly, _canonical: bool = False):
        if not _canonical:
            num, den = _cancel(num, den)
        self.num = num
        self.den = den
        self._hash: int | None = None

    # -- construction ----------------------------------------------------------

    @staticmethod
    def const(nvars: int, c) -> "Scalar":
        return Scalar(Poly.const(nvars, c), Poly.one(nvars), _canonical=True)

    @staticmethod
    def zero(nvars: int) -> "Scalar":
        return Scalar(Poly(nvars, {}), Poly.one(nvars), _canonical=True)

    @staticmethod
    def one(nvars: int) -> "Scalar":
        return Scalar.const(nvars, 1)

    @staticmethod
    def variable(i: int, nvars: int) -> "Scalar":
        return Scalar(Poly.variable(i, nvars), Poly.one(nvars), _canonical=True)

    @staticmethod
    def from_poly(p: Poly) -> "Scalar":
        return Scalar(p, Poly.one(p.nvars), _canonical=True)

    # -- views -----------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def is_polynomial(self) -> bool:
        return self.den is _UNITS.get(self.den.nvars)

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    # -- field operations --------------------------------------------------------

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den, _canonical=True)

    def __add__(self, other: "Scalar") -> "Scalar":
        if _polynomial_pair(self, other):
            return Scalar(self.num + other.num, self.den, _canonical=True)
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if _polynomial_pair(self, other):
            return Scalar(self.num * other.num, self.den, _canonical=True)
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        if self.is_zero() or other.is_zero():
            return Scalar.zero(self.nvars)
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = poly_divexact(self.num, g1)
        d2 = poly_divexact(other.den, g1)
        n2 = poly_divexact(other.num, g2)
        d1 = poly_divexact(self.den, g2)
        return Scalar(n1 * n2, d1 * d2)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.den, self.num)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def scale(self, c) -> "Scalar":
        c = Fraction(c)
        if c == 0:
            return Scalar.zero(self.nvars)
        return Scalar(self.num.scale(c), self.den)

    # -- calculus -----------------------------------------------------------------

    def derivative(self, i: int) -> "Scalar":
        """Quotient-rule partial derivative with respect to x_i.

        Uses the gcd-extracted form: with g = gcd(d, d_i) and d = g u,
        d_i = g v, the derivative is (n_i u - n v) / (d u), which keeps the
        cancellation work on polynomials no larger than d itself.
        """
        n, d = self.num, self.den
        dn = n.derivative(i)
        if d.is_constant():
            return Scalar(dn, d, _canonical=True)
        dd = d.derivative(i)
        if dd.is_zero():
            return Scalar(dn, d)
        g = poly_gcd(d, dd)
        if g.is_constant():
            return Scalar(dn * d - n * dd, d * d)
        u = poly_divexact(d, g)
        v = poly_divexact(dd, g)
        return Scalar(dn * u - n * v, d * u)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        dv = self.den.evaluate(point)
        if dv == 0:
            raise PoleError(f"denominator vanishes at point {tuple(point)}")
        return self.num.evaluate(point) / dv

    # -- comparisons -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self) -> str:
        return f"Scalar({scalar_to_str(self)!r})"


# ---------------------------------------------------------------------------
# The fast path.  A canonical Scalar is a polynomial exactly when its
# denominator is the shared unit, so two operands over one ring are both
# polynomials when they share that denominator.  Their product or sum is
# computed on numerators alone, since a polynomial over the unit is already
# canonical; this is the same structure the gcd path gives.  Constants are
# polynomials too.  Everything else, and operands over different rings, takes
# the gcd path.
# ---------------------------------------------------------------------------


def _polynomial_pair(s: Scalar, t: Scalar) -> bool:
    """True if s and t are both polynomials over one ring."""
    return s.den is t.den and s.is_polynomial()


def _poly_constant(p: Poly) -> Fraction | None:
    """The value of p if it is constant, else None."""
    terms = p.terms
    if not terms:
        return _ZERO
    if len(terms) > 1:
        return None
    ((e, c),) = terms.items()
    return None if any(e) else c


def _cancel(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    n, d = _poly_constant(num), _poly_constant(den)
    if n is not None and d is not None:
        return Poly.const(num.nvars, n / d), Poly.one(num.nvars)
    if num.is_zero():
        return Poly.zero(num.nvars), Poly.one(num.nvars)
    g = poly_gcd(num, den)
    if not (g.is_constant() and g.constant_value() == 1):
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    c = _content(den)
    if c != 1:
        num = num.scale(1 / c)
        den = den.scale(1 / c)
    if den.is_constant():
        return num, Poly.one(num.nvars)
    return num, den


# ---------------------------------------------------------------------------
# Printing and parsing: the fixed polynomial grammar `coef*x1^a*x2^b...`
# with `+`/`-` separators; scalars are `poly` or `(poly)/(poly)`.
# ---------------------------------------------------------------------------


def poly_to_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
    parts: list[str] = []
    for e, c in items:
        mono = "*".join(
            f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
            for i, k in enumerate(e)
            if k
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def scalar_to_str(s: Scalar) -> str:
    if s.is_polynomial():
        return poly_to_str(s.num)
    return f"({poly_to_str(s.num)})/({poly_to_str(s.den)})"


# The largest exponent of a variable that `poly_from_str` accepts.  Checked
# before any arithmetic: one power of a huge exponent runs in C, where no
# timer can interrupt it, so a larger one is a usage error.
MAX_EXPONENT = 64

_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_NUMBER = re.compile(r"^\d+(?:/\d+)?$")


def poly_from_str(text: str, nvars: int) -> Poly:
    """Parse the fixed polynomial grammar into a Poly."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    tokens: list[tuple[int, str]] = []
    sign = 1
    buf = ""
    for ch in s:
        if ch in "+-" and buf and not buf.endswith(("*", "^", "/")):
            tokens.append((sign, buf))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch in "+-" and not buf:
            sign = sign * (1 if ch == "+" else -1)
        else:
            buf += ch
    if not buf:
        raise ValueError(f"trailing sign in polynomial string {text!r}")
    tokens.append((sign, buf))
    result = Poly.zero(nvars)
    for sgn, term in tokens:
        coef = Fraction(sgn)
        exps = [0] * nvars
        for factor in term.split("*"):
            m = _FACTOR.match(factor)
            if m:
                i = int(m.group(1))
                if not 1 <= i <= nvars:
                    raise ValueError(f"variable x{i} out of range in {text!r}")
                exps[i - 1] += int(m.group(2) or 1)
                if exps[i - 1] > MAX_EXPONENT:
                    raise ValueError(
                        f"exponent {exps[i - 1]} of x{i} exceeds {MAX_EXPONENT} "
                        f"in polynomial {text!r}"
                    )
            elif _NUMBER.match(factor):
                try:
                    coef *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(
                        f"zero denominator in {factor!r} in polynomial {text!r}"
                    ) from None
            else:
                raise ValueError(f"bad factor {factor!r} in polynomial {text!r}")
        result = result + Poly(nvars, {tuple(exps): coef}) if coef else result
    return result


def scalar_from_str(text: str, nvars: int) -> Scalar:
    s = text.strip()
    m = re.match(r"^\((?P<num>.*)\)\s*/\s*\((?P<den>.*)\)$", s)
    if m:
        den = poly_from_str(m.group("den"), nvars)
        if den.is_zero():
            raise ValueError(f"zero denominator in {text!r}")
        return Scalar(poly_from_str(m.group("num"), nvars), den)
    return Scalar.from_poly(poly_from_str(s, nvars))


def rational_from_str(text) -> Fraction:
    """A rational number such as ``-3/2``, read by `scalar_from_str`.

    Raises ValueError on anything else, a zero denominator included.
    """
    return scalar_from_str(str(text), 0).constant_value()


# ---------------------------------------------------------------------------
# Real-definiteness pattern
# ---------------------------------------------------------------------------


def is_positive_pattern(p: Poly) -> bool:
    """Recognize `positive constant + sum of positive even-power terms`.

    Sound certificate that p has no real zero (in particular no rational one):
    every recognized polynomial is >= its constant term > 0 on all of R^n.
    """
    if p.is_zero():
        return False
    const = p.coefficient((0,) * p.nvars)
    if const <= 0:
        return False
    for e, c in p.terms.items():
        if not any(e):
            continue
        if c <= 0 or any(k % 2 for k in e):
            return False
    return True


def is_definite(p: Poly) -> bool:
    """True if p is certifiably nonvanishing on all of Q^n."""
    if p.is_constant():
        return not p.is_zero()
    return is_positive_pattern(p) or is_positive_pattern(-p)


def scalar_is_definite(s: Scalar) -> bool:
    """True if s is certifiably pole-free and zero-free on all of Q^n."""
    return is_definite(s.num) and is_definite(s.den)


def scalar_is_polefree(s: Scalar) -> bool:
    """True if s is certifiably pole-free on all of Q^n."""
    return is_definite(s.den)


# ---------------------------------------------------------------------------
# Random generation (deterministic given an rng)
# ---------------------------------------------------------------------------


def random_fraction(rng, bound: int = 100) -> Fraction:
    """Random rational with numerator and denominator bounded by `bound`."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_poly(rng, nvars: int, max_degree: int, terms: int = 3,
                bound: int = 10) -> Poly:
    out = Poly.zero(nvars)
    for _ in range(terms):
        exps = [0] * nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        c = random_fraction(rng, bound)
        if c:
            out = out + Poly(nvars, {tuple(exps): c})
    return out
