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
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Sequence


class PoleError(ZeroDivisionError):
    """Evaluation at a point where a denominator vanishes."""

    @classmethod
    def at(cls, point) -> "PoleError":
        return cls(f"denominator vanishes at point {tuple(point)}")


_ZERO = Fraction(0)

# The denominator of every polynomial Scalar: `Poly.one`, and so the
# constructors, the fast path and `_cancel`, all return it, so recognising a
# polynomial is an identity test.  Sharing is safe because no operation
# mutates a Poly.
_UNITS: dict[int, "Poly"] = {}

# An exponent vector is packed into one int key: the total degree in the top
# slot, then the exponents of x_1 .. x_n, _SLOT bits each.  Integer order on
# keys is graded-lex order, so the leading monomial is max(keys), and a
# monomial product is one add.  Degrees stay at most MAX_DEGREE, below half a
# slot, so a sum of two keys never carries between slots, and a difference
# that borrows sets the top bit of some slot.
_SLOT = 16
_MASK = (1 << _SLOT) - 1
MAX_DEGREE = (1 << (_SLOT - 1)) - 1
_CONST = {0: 1}  # the primitive part of every constant


class Poly:
    """Sparse multivariate polynomial over Q: cn/cd * sum(v x^k in ip).

    ip maps packed exponent keys to coprime ints, the leading (largest-key)
    one positive.  The content cn/cd is a nonzero rational held as two
    coprime ints with cd > 0; the zero polynomial has no terms and content
    1/1.  Instances and their dicts are immutable by convention and may be
    shared.
    """

    __slots__ = ("nvars", "cn", "cd", "ip", "_hash")

    def __init__(self, nvars: int, cn: int, cd: int, ip: dict[int, int]):
        self.nvars = nvars
        self.cn = cn
        self.cd = cd
        self.ip = ip
        self._hash: int | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, 1, 1, {})

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        if type(c) is not int:
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:  # a Fraction is in lowest terms already
                return Poly(nvars, c.numerator, c.denominator, _CONST)
        return Poly(nvars, c, 1, _CONST) if c else Poly.zero(nvars)

    @staticmethod
    def one(nvars: int) -> "Poly":
        """The unit polynomial; one shared instance per variable count."""
        unit = _UNITS.get(nvars)
        if unit is None:
            unit = _UNITS[nvars] = Poly(nvars, 1, 1, _CONST)
        return unit

    @staticmethod
    def variable(i: int, nvars: int) -> "Poly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        return Poly(nvars, 1, 1, {_step(i, nvars): 1})

    @staticmethod
    def from_terms(nvars: int, terms: dict[tuple[int, ...], Fraction]) -> "Poly":
        """The polynomial with these {exponent tuple: int or Fraction} terms."""
        coefs = {_pack(e): c for e, c in terms.items() if c}
        den = lcm(*[c.denominator for c in coefs.values()])
        ints = {k: c.numerator * (den // c.denominator) for k, c in coefs.items()}
        return _primitive(nvars, ints, 1, den)

    # -- predicates and views ------------------------------------------------

    @property
    def content(self) -> Fraction:
        """The content cn/cd as a Fraction, built on each read."""
        return Fraction(self.cn, self.cd)

    def is_zero(self) -> bool:
        return not self.ip

    def is_constant(self) -> bool:
        return not self.ip or (len(self.ip) == 1 and 0 in self.ip)

    def constant_value(self) -> Fraction:
        if not self.ip:
            return _ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.content

    def degree_in(self, i: int) -> int:
        """Degree in variable x_i (1-based); 0 for the zero polynomial."""
        shift = _SLOT * (self.nvars - i)
        return max([(k >> shift) & _MASK for k in self.ip], default=0)

    def coefficient(self, exponents: tuple[int, ...]) -> Fraction:
        v = self.ip.get(_pack(exponents))
        return Fraction(self.cn * v, self.cd) if v else _ZERO

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """(exponent tuple, coefficient) per term, in decreasing graded-lex order."""
        n, cn, cd = self.nvars, self.cn, self.cd
        return [(_exponents(k, n), Fraction(cn * self.ip[k], cd))
                for k in sorted(self.ip, reverse=True)]

    # -- ring operations -----------------------------------------------------

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, -self.cn, self.cd, self.ip) if self.ip else self

    def __add__(self, other: "Poly") -> "Poly":
        n = self.nvars
        if n != other.nvars:
            raise ValueError("variable-count mismatch")
        if not other.ip:
            return self
        if not self.ip:
            return other
        an, ad, bn, bd = self.cn, self.cd, other.cn, other.cd
        if self.ip is _CONST and other.ip is _CONST:
            if ad == bd:
                return _const(n, an + bn, ad)
            return _const(n, an * bd + bn * ad, ad * bd)
        # num/den * (a * self.ip + b * other.ip), all on ints; num is coprime
        # to den, since every prime power of den divides ad or bd exactly
        if ad == bd:
            den, a, b = ad, an, bn
        else:
            den = lcm(ad, bd)
            a = an * (den // ad)
            b = bn * (den // bd)
        num = gcd(a, b)
        a //= num
        b //= num
        out = dict(self.ip) if a == 1 else {k: a * v for k, v in self.ip.items()}
        get = out.get
        for k, v in other.ip.items():
            s = get(k, 0) + b * v
            if s:
                out[k] = s
            else:
                del out[k]
        return _primitive(n, out, num, den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """Content times content, and an integer convolution of the primitive
        parts.  By Gauss's lemma that convolution is primitive, and its
        leading term is the product of two positive leading terms, so the
        result needs no normalization."""
        n = self.nvars
        if n != other.nvars:
            raise ValueError("variable-count mismatch")
        a, b = self.ip, other.ip
        if not a or not b:
            return Poly.zero(n)
        if len(a) < len(b):
            a, b = b, a
        kb = max(b)
        if (max(a) + kb) >> (_SLOT * n) > MAX_DEGREE:
            raise OverflowError(f"polynomial degree exceeds {MAX_DEGREE}")
        if self.cd == 1 and other.cd == 1:
            cn, cd = self.cn * other.cn, 1
        else:
            cn, cd = _qmul(self.cn, self.cd, other.cn, other.cd)
        if len(b) == 1:  # a monomial: its coefficient is 1
            return Poly(n, cn, cd, a if kb == 0 else {k + kb: v for k, v in a.items()})
        out: dict[int, int] = {}
        get = out.get
        for k2, v2 in b.items():
            for k1, v1 in a.items():
                k = k1 + k2
                out[k] = get(k, 0) + v1 * v2
        if 0 in out.values():
            out = {k: v for k, v in out.items() if v}
        return Poly(n, cn, cd, out)

    def scale(self, c) -> "Poly":
        if type(c) is not Fraction:
            c = Fraction(c)
        if c == 0 or not self.ip:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, *_qmul(self.cn, self.cd, c.numerator, c.denominator), self.ip)

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
        n = self.nvars
        shift, step = _SLOT * (n - i), _step(i, n)
        # distinct keys stay distinct, so no two terms meet
        out = {}
        for k, v in self.ip.items():
            e = (k >> shift) & _MASK
            if e:
                out[k - step] = e * v
        return _primitive(n, out, self.cn, self.cd)

    def evaluate(self, point: Point | Sequence) -> Fraction:
        """The exact value at a rational point (ints, Fractions or strings)."""
        s, d = self._sum_at(as_point(point))
        if s == d:  # a constant, or any value that is the content itself
            return self.content
        return Fraction(s * self.cn, d * self.cd)

    def vanishes_at(self, point: Point | Sequence) -> bool:
        """Is the value at the point zero?  Read from the integer sum alone."""
        return not self._sum_at(as_point(point))[0]

    def _sum_at(self, point: Point) -> tuple[int, int]:
        """(s, d) with the value at the point equal to cn/cd * s / d.

        With x_i = p_i/q_i and D_i a bound on the degree in x_i, s is
        sum v_e prod p_i^e_i q_i^(D_i - e_i) and d is prod q_i^D_i, both
        ints.  D_i is read from the bitwise or of the keys, which bounds
        every slot by less than twice its largest value; the point builds
        each table once.
        """
        n = self.nvars
        if len(point.coords) != n:
            raise ValueError("point dimension mismatch")
        bits = reduce(or_, self.ip, 0)
        if not bits:  # a constant
            return (1 if self.ip else 0), 1
        den = 1
        tables = []
        shift = _SLOT * n
        for i in range(n):
            shift -= _SLOT
            d = (bits >> shift) & _MASK
            if d:
                table = point.table(i, d)
                tables.append((shift, table))
                den *= table[0]  # q_i^D_i
        total = 0
        mask = _MASK
        for k, v in self.ip.items():
            for shift, table in tables:
                v *= table[(k >> shift) & mask]
            total += v
        return total, den

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.cn == other.cn
            and self.cd == other.cd
            and self.ip == other.ip
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self.cn, self.cd, frozenset(self.ip.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Poly({poly_to_str(self)!r})"


def _step(i: int, nvars: int) -> int:
    """The key of x_i (1-based): one unit of its exponent and of the degree."""
    return (1 << (_SLOT * nvars)) + (1 << (_SLOT * (nvars - i)))


def _pack(exponents: Sequence[int]) -> int:
    key = sum(exponents)
    if key > MAX_DEGREE:
        raise OverflowError(f"polynomial degree exceeds {MAX_DEGREE}")
    for e in exponents:
        key = key << _SLOT | e
    return key


def _exponents(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (_SLOT * (nvars - i))) & _MASK for i in range(1, nvars + 1))


def _primitive(nvars: int, ints: dict[int, int], cn: int = 1, cd: int = 1) -> Poly:
    """The Poly cn/cd * sum(v x^k for k, v in ints), for nonzero int values
    and coprime cn, cd with cd > 0."""
    if not ints:
        return Poly.zero(nvars)
    g = gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
        if cd != 1:
            h = gcd(g, cd)
            g //= h
            cd //= h
        cn *= g
    return Poly(nvars, cn, cd, _CONST if ints == _CONST else ints)


def _const(nvars: int, n: int, d: int) -> Poly:
    """The constant n/d, for ints n and d > 0."""
    if not n:
        return Poly.zero(nvars)
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    return Poly(nvars, n, d, _CONST)


def _qmul(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad) * (bn/bd) in lowest terms, for two fractions in lowest terms
    with positive denominators.  The cross gcds leave only coprime factors
    to multiply (Knuth, TAOCP vol. 2, 4.5.1)."""
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


def _qdiv(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad) / (bn/bd) in lowest terms, for bn != 0; as `_qmul`."""
    if bn < 0:
        an, bn = -an, -bn
    return _qmul(an, ad, bd, bn)


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


class Point:
    """A rational point at which many polynomials are evaluated.

    Holds the coordinates as Fractions and builds the power table
    [p^k q^(D-k) for k = 0..D] of coordinate p/q for each (variable, degree
    bound D) on first use, so every evaluation at the point shares it.
    """

    __slots__ = ("coords", "_tables")

    def __init__(self, coords: Sequence):
        self.coords = tuple([x if type(x) is Fraction else Fraction(x) for x in coords])
        self._tables: dict[tuple[int, int], list[int]] = {}

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def table(self, i: int, degree: int) -> list[int]:
        """The power table of coordinate i (0-based) for degree bound `degree`."""
        key = (i, degree)
        table = self._tables.get(key)
        if table is None:
            x = self.coords[i]
            table = self._tables[key] = _power_table(x.numerator, x.denominator, degree)
        return table


def as_point(point: Point | Sequence) -> Point:
    return point if type(point) is Point else Point(point)


# ---------------------------------------------------------------------------
# Division, gcd, and content
# ---------------------------------------------------------------------------


def poly_divexact(f: Poly, g: Poly) -> Poly:
    """Exact division f / g; raises ValueError if g does not divide f.

    The classic loop runs on the primitive parts.  If g divides f, Gauss's
    lemma makes the quotient primitive over Z, so each step divides two ints
    exactly and subtracts two keys without a borrow; the first step that
    does not proves g does not divide f.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return Poly.zero(f.nvars)
    if g.is_constant():
        if g.cn == 1 and g.cd == 1:
            return f
        return Poly(f.nvars, *_qdiv(f.cn, f.cd, g.cn, g.cd), f.ip)
    # the top bit of every slot
    high = ((1 << (_SLOT * (f.nvars + 1))) - 1) // _MASK << (_SLOT - 1)
    gi = g.ip
    g_lk = max(gi)
    g_lc = gi[g_lk]
    rem = dict(f.ip)
    q: dict[int, int] = {}
    while rem:
        lk = max(rem)
        d = lk - g_lk
        c, r = divmod(rem[lk], g_lc)
        if d < 0 or d & high or r:
            raise ValueError("inexact polynomial division")
        q[d] = c
        for k, v in gi.items():
            k += d
            s = rem.get(k, 0) - c * v
            if s:
                rem[k] = s
            else:
                del rem[k]
    return Poly(f.nvars, *_qdiv(f.cn, f.cd, g.cn, g.cd), q)


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
    n = f.nvars
    shift, step = _SLOT * (n - var), _step(var, n)
    out: dict[int, dict[int, int]] = {}
    for k, v in f.ip.items():
        e = (k >> shift) & _MASK
        out.setdefault(e, {})[k - e * step] = v
    return {e: _primitive(n, t, f.cn, f.cd) for e, t in out.items()}


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


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Gcd in Q[x1..xn], normalized primitive with positive leading coefficient.

    Nonzero constants are units, so gcd(f, const) = 1.  Otherwise the
    heuristic gcd runs on the primitive parts, and the primitive PRS on a
    minimal-degree main variable is the fallback when it gives up.  A
    heuristic answer needs no further check: it divides both operands, and
    by the theorem cited at `_heuristic_gcd_raw` such a divisor is the gcd,
    so its cofactors are coprime.
    """
    if f.nvars != g.nvars:
        raise ValueError("variable-count mismatch")
    if f.is_zero():
        return _normalize_primitive(g)
    if g.is_zero():
        return _normalize_primitive(f)
    if f.is_constant() or g.is_constant():
        return Poly.one(f.nvars)
    h = _heuristic_gcd_raw(_normalize_primitive(f), _normalize_primitive(g), 0)
    if h is None:
        return _prs_gcd(f, g)
    return _normalize_primitive(h)


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
# Heuristic gcd (Char, Geddes & Gonnet, GCDHEU): evaluate at a large integer,
# reconstruct digits, verify.  It runs on primitive integer polynomials, so
# it reads and writes the packed integer values directly.
# ---------------------------------------------------------------------------


def _eval_main_var(f: Poly, var: int, xi: int) -> Poly:
    """Substitute x_var = xi, folding its powers into the coefficients."""
    n = f.nvars
    shift, step = _SLOT * (n - var), _step(var, n)
    out: dict[int, int] = {}
    for k, v in f.ip.items():
        e = (k >> shift) & _MASK
        k -= e * step
        out[k] = out.get(k, 0) + v * xi**e
    return _primitive(n, {k: v for k, v in out.items() if v}, f.cn, f.cd)


def _smod(a: int, m: int) -> int:
    r = a % m
    return r - m if 2 * r > m else r


def _heuristic_gcd_raw(f: Poly, g: Poly, depth: int) -> Poly | None:
    """Gcd of primitive integer polynomials by evaluation/reconstruction
    (GCDHEU), or None when the heuristic gives up.

    Each level substitutes an integer xi for one variable, takes the gcd of
    the two images one level down (an integer gcd once no variable is
    left), rebuilds a candidate from its symmetric base-xi digits and keeps
    it only if it divides both operands.  Since xi >= 2 * min(|f|_inf,
    |g|_inf) + 2, such a candidate is the gcd (Char, Geddes & Gonnet,
    J. Symb. Comp. 7, 1989, Thm. 1; Geddes, Czapor & Labahn 1992,
    Thm. 7.7), so the two trial divisions are the whole check.  The first
    xi is 2 * min + 29 and `_next_xi` only raises it.  Each level gives up
    after 6 points, past depth 8, or as soon as a call below it gives up.
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
    xi = 2 * min(max(map(abs, p.ip.values())) for p in (f, g)) + 29
    # the gcd has no higher degree in x_var than either operand
    limit = min(f.degree_in(var), g.degree_in(var))
    for _ in range(6):
        fe = _eval_main_var(f, var, xi)
        ge = _eval_main_var(g, var, xi)
        if fe.is_zero() or ge.is_zero():
            xi = _next_xi(xi)
            continue
        if fe.is_constant() and ge.is_constant():
            # both have integer coefficients, so cd == 1
            h_eval = Poly.const(f.nvars, gcd(fe.cn, ge.cn))
        else:
            h_eval = _heuristic_gcd_raw(
                _normalize_primitive(fe), _normalize_primitive(ge), depth + 1
            )
            if h_eval is None:
                # a retry here would rerun the whole give-up below, so the
                # work would grow like 6^depth: leave it to the PRS fallback
                return None
            # the gcd of the evaluations also carries the integer gcd of
            # the evaluated contents
            h_eval = _scale_to_eval_gcd(h_eval, fe, ge)
        h = _reconstruct(h_eval, var, xi, limit)
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


def _scale_to_eval_gcd(h_eval: Poly, fe: Poly, ge: Poly) -> Poly:
    """Scale the recursive gcd by the integer gcd of remaining contents.

    fe, ge and h_eval have integer coefficients, so each content is an
    integer: plus or minus the gcd of the coefficients.
    """
    extra = gcd(fe.cn, ge.cn)
    ch = abs(h_eval.cn)
    return h_eval if extra == ch else h_eval.scale(Fraction(extra, ch))


def _next_xi(xi: int) -> int:
    return 2 * xi + 29


def _reconstruct(gamma: Poly, var: int, xi: int, limit: int) -> Poly | None:
    """Rebuild a polynomial of degree at most `limit` in x_var from its
    base-xi digit expansion; gamma has integer coefficients and no x_var."""
    if gamma.cd != 1:
        return None
    n = gamma.nvars
    step = _step(var, n)
    c = gamma.cn
    rest = {k: v * c for k, v in gamma.ip.items()}
    out: dict[int, int] = {}
    e = 0
    while rest:
        if e > limit:
            return None
        digits, rest = rest, {}
        for k, v in digits.items():
            r = _smod(v, xi)
            if r:
                out[k + e * step] = r
            v = (v - r) // xi
            if v:
                rest[k] = v
        e += 1
    return _primitive(n, out)


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
    if f.is_zero() or (f.cn == 1 and f.cd == 1):
        return f
    return Poly(f.nvars, 1, 1, f.ip)


def poly_lcm(f: Poly, g: Poly) -> Poly:
    if f.is_zero() or g.is_zero():
        return Poly.zero(f.nvars)
    return _normalize_primitive(poly_divexact(f * g, poly_gcd(f, g)))


# ---------------------------------------------------------------------------
# Scalar: the fraction field
# ---------------------------------------------------------------------------


class Scalar:
    """Reduced fraction of polynomials; canonical and hashable.

    Use `Scalar.const`, `Scalar.variable`, or `scalar_from_str` to build values;
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
        return Scalar(Poly.zero(nvars), Poly.one(nvars), _canonical=True)

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
        return Scalar(self.num * other.num, self.den * other.den)

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

    def evaluate(self, point: Point | Sequence) -> Fraction:
        pt = as_point(point)
        if self.is_polynomial():  # the unit denominator has no pole
            return self.num.evaluate(pt)
        dv = self.den.evaluate(pt)
        if dv == 0:
            raise PoleError.at(point)
        return self.num.evaluate(pt) / dv

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


def _cancel(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return num, Poly.one(num.nvars)
    if not den.is_constant():  # a unit or constant denominator needs no gcd
        g = poly_gcd(num, den)
        if not g.is_constant():
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
    if den.cn != 1 or den.cd != 1:
        num = Poly(num.nvars, *_qdiv(num.cn, num.cd, den.cn, den.cd), num.ip)
    if den.is_constant():
        return num, Poly.one(num.nvars)
    return num, _normalize_primitive(den)


# ---------------------------------------------------------------------------
# Printing and parsing: the fixed polynomial grammar `coef*x1^a*x2^b...`
# with `+`/`-` separators; scalars are `poly` or `(poly)/(poly)`.
# ---------------------------------------------------------------------------


def poly_to_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    n = p.nvars
    num, den = p.cn, p.cd
    parts: list[str] = []
    # key order is graded-lex order
    for k in sorted(p.ip, reverse=True):
        v = p.ip[k] * num
        g = gcd(v, den)
        a, b = abs(v) // g, den // g
        coef = str(a) if b == 1 else f"{a}/{b}"
        mono = "*".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(_exponents(k, n))
            if e
        )
        if not mono:
            body = coef
        elif coef == "1":
            body = mono
        else:
            body = f"{coef}*{mono}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if v > 0 else f" - {body}")
    return "".join(parts)


def scalar_to_str(s: Scalar) -> str:
    if s.is_polynomial():
        return poly_to_str(s.num)
    return f"({poly_to_str(s.num)})/({poly_to_str(s.den)})"


# The largest exponent of a variable that `poly_from_str` accepts.  Checked
# before any arithmetic: one power of a huge exponent runs in C, where no
# timer can interrupt it, so a larger one is a usage error.
MAX_EXPONENT = 64

# The most terms that `poly_from_str` accepts in one polynomial.  Counted
# while the string is split into terms, before any arithmetic, so a hostile
# payload is a usage error.  The payloads of the checks and of `generate`
# have a few dozen terms at most.
MAX_TERMS = 4096

# The grammar, spaces removed: each term is a sign run and a body of factors
# joined by `*`.  A `+` or `-` right after `*`, `^` or `/` stays in the body,
# where its factor is refused.  Digits are ASCII and nothing matches a line
# break, so `fullmatch` reads a factor or a literal exactly.
_TERM = re.compile(r"([+-]*)((?:[^+\-]|(?<=[*^/])[+-])+)")
_FACTOR = re.compile(r"x([0-9]+)(?:\^([0-9]+))?|([0-9]+)(?:/([0-9]+))?")
_LITERAL = re.compile(r"([+-]*)([0-9]+)(?:/([0-9]+))?")


def _quote(text: str) -> str:
    """repr(text), or of its first 80 characters and its length, so that a
    refused payload of any size gives a short message."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:80]!r}... ({len(text)} characters)"


def _literal(s: str, text: str) -> tuple[int, int] | None:
    """The signed rational literal `s` (spaces removed from `text`) as an
    int numerator and a positive denominator, not reduced; None if `s` is
    not one literal.  A zero denominator raises ValueError quoting `text`."""
    m = _LITERAL.fullmatch(s)
    if m is None:
        return None
    signs, a, b = m.groups()
    num, den = int(a), 1 if b is None else int(b)
    if not den:
        raise ValueError(
            f"zero denominator in {_quote(s[len(signs):])} "
            f"in polynomial {_quote(text)}"
        )
    return (-num if signs.count("-") & 1 else num), den


def literal_from_str(text: str) -> tuple[int, int] | None:
    """The constant that `scalar_from_str(text, nvars)` reads when `text` is
    one signed rational literal such as ``- -4/6``, as (int numerator,
    positive int denominator), not reduced; None for any other string.

    A zero denominator raises the ValueError of `scalar_from_str`.
    """
    s = text.strip(" ")
    return _literal(s.replace(" ", ""), s)


def _shown(value) -> str:
    """repr(value), cut to a bounded quote when it is long."""
    text = repr(value)
    return text if len(text) <= 80 else _quote(text)


def poly_from_str(text: str, nvars: int) -> Poly:
    """Parse the fixed polynomial grammar into a Poly.

    Each term's packed key and int numerator and denominator are built
    straight from the string, and the content from their lcm, all on ints.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    literal = _literal(s, text)
    if literal is not None:  # a signed rational literal, the bulk of a Q payload
        return _const(nvars, *literal)
    terms = []
    end = 0
    # Terms are contiguous, so each match is anchored where the last one
    # ended: a trailing sign run is scanned once, not from each of its signs.
    while (m := _TERM.match(s, end)) is not None:
        if len(terms) == MAX_TERMS:  # and another term starts here
            raise ValueError(f"more than {MAX_TERMS} terms in a polynomial string")
        terms.append(m.groups())
        end = m.end()
    if end < len(s):  # the string ends in a sign run
        if len(terms) == MAX_TERMS:
            raise ValueError(f"more than {MAX_TERMS} terms in a polynomial string")
        raise ValueError(f"trailing sign in polynomial string {_quote(text)}")
    degree = _SLOT * nvars  # the shift of the total-degree slot
    top = 1 << degree
    coefs: dict[int, tuple[int, int]] = {}
    for signs, body in terms:
        key, num, den = 0, -1 if signs.count("-") & 1 else 1, 1
        for factor in body.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ValueError(
                    f"bad factor {_quote(factor)} in polynomial {_quote(text)}"
                )
            var, exp, a, b = m.groups()
            if var is not None:
                i = int(var)
                if not 1 <= i <= nvars:
                    raise ValueError(f"variable x{i} out of range in {_quote(text)}")
                shift = _SLOT * (nvars - i)
                have = (key >> shift) & _MASK
                e = have + (1 if exp is None else int(exp))
                if e > MAX_EXPONENT:
                    raise ValueError(
                        f"exponent {e} of x{i} exceeds {MAX_EXPONENT} "
                        f"in polynomial {_quote(text)}"
                    )
                key += (e - have) * (top + (1 << shift))
            else:
                num *= int(a)
                if b is not None:
                    d = int(b)
                    if not d:
                        raise ValueError(
                            f"zero denominator in {_quote(factor)} "
                            f"in polynomial {_quote(text)}"
                        )
                    den *= d
        old = coefs.get(key)
        if old is not None:  # a repeated monomial: add over the lcm
            n0, d0 = old
            g = gcd(d0, den)
            num, den = n0 * (den // g) + num * (d0 // g), d0 // g * den
        coefs[key] = num, den
    L = lcm(*[d for _, d in coefs.values()])
    ints = {k: n * (L // d) for k, (n, d) in coefs.items() if n}
    # MAX_EXPONENT in every variable passes MAX_DEGREE once nvars >= 512
    if ints and max(ints) >> degree > MAX_DEGREE:
        raise OverflowError(f"polynomial degree exceeds {MAX_DEGREE}")
    return _primitive(nvars, ints, 1, L)


# The numerator stops at its first parenthesis, so a payload of many `)/(`
# is split once, not tried at each of them.
_QUOTIENT = re.compile(r"\((?P<num>[^()\n]*)\) */ *\((?P<den>.*)\)")


def scalar_from_str(text: str, nvars: int) -> Scalar:
    s = text.strip(" ")
    m = _QUOTIENT.fullmatch(s)
    if m:
        den = poly_from_str(m.group("den"), nvars)
        if den.is_zero():
            raise ValueError(f"zero denominator in {_quote(text)}")
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
    # every coefficient is positive exactly when the content and every
    # integer value are, and every exponent is even when no key has the low
    # bit of an exponent slot set
    odd = sum(1 << (_SLOT * i) for i in range(p.nvars))
    return p.cn > 0 and 0 in p.ip and all(
        v > 0 and not k & odd for k, v in p.ip.items())


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
    out: dict[tuple[int, ...], Fraction] = {}
    for _ in range(terms):
        exps = [0] * nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        e = tuple(exps)
        c = random_fraction(rng, bound)
        out[e] = out[e] + c if e in out else c
    return Poly.from_terms(nvars, out)
