"""Exact Grassmann calculus on a coordinate chart R^n.

Differential forms and multivector fields are stored sparsely: a map from
strictly increasing 1-based index tuples to Scalar coefficients.  No 1/k!
factors appear anywhere; a basis monomial is stored exactly once.

Sign conventions (fixed here once, used consistently everywhere):
  * contraction by a decomposable multivector nests left-to-right:
        iota_{X1^...^Xk} = iota_{X1} o ... o iota_{Xk}
    (so X_k is contracted first),
  * the full pairing of a k-vector with a k-form is the determinant pairing,
        <d_1^d_2, dx1^dx2> = 1,
  * the Lie derivative by a multivector P is  iota_P o d  -  d o iota_P,
  * the classical Cartan derivative for vector fields (used by the Dorfman
    bracket) is  d o iota_X  +  iota_X o d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from .rational import (
    Scalar,
    _quote,
    _shown,
    poly_from_str,
    scalar_from_str,
    scalar_to_str,
)


# The largest chart dimension accepted.  Work grows at least exponentially
# in it (exterior bases, Pfaffian scans), so a larger chart from an instance
# file or `--dim` is a usage error rather than a run that never ends.
MAX_CHART_DIM = 12

# The largest matrix size of a linear payload: the `n` of a skew map and the
# `ambient` of a subspace.  A linear instance parses over n variables and
# its lemma battery eliminates matrices of size up to 2n x 4n, whose int
# entries grow with n, so a larger size is refused before any entry is read.
MAX_LINEAR_DIM = 24


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


class DegreeError(ValueError):
    """An operand has the wrong (or mixed) degree."""


@dataclass(frozen=True)
class Chart:
    """A coordinate chart on R^n with variables x1..xn."""

    dim: int

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_CHART_DIM:
            raise ValueError(
                f"chart dimension {_shown(self.dim)} is outside 1..{MAX_CHART_DIM}"
            )

    def scalar(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.nvars != self.dim:
                raise ChartMismatchError("scalar has wrong variable count")
            return value
        if isinstance(value, str):
            return scalar_from_str(value, self.dim)
        return Scalar.const(self.dim, value)


Coefficient = Union[Scalar, Fraction, int, str]
IndexTuple = tuple[int, ...]


def _sorted_with_sign(indices: Sequence[int]) -> tuple[IndexTuple, int]:
    """Sort indices, returning (tuple, permutation sign); 0 sign on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def _add_term(terms: dict[IndexTuple, Scalar], idx: IndexTuple, c: Scalar) -> None:
    """terms[idx] += c, dropping the entry when the sum is zero.

    Every sum that enters a graded element passes through here, so no stored
    coefficient is zero: the canonical form that `==` and `hash` rely on.
    """
    prev = terms.get(idx)
    c = c if prev is None else prev + c
    if c.is_zero():
        terms.pop(idx, None)
    else:
        terms[idx] = c


class _GradedElement:
    """Shared storage/arithmetic for forms and multivector fields."""

    __slots__ = ("chart", "terms", "_hash")

    def __init__(self, chart: Chart, terms: dict[IndexTuple, Scalar]):
        self.chart = chart
        self.terms = terms
        self._hash = None

    # -- construction --------------------------------------------------------

    @classmethod
    def make(cls, chart: Chart, data: Mapping[Sequence[int], Coefficient]):
        """Build from possibly unsorted index tuples; merges and normalizes."""
        terms: dict[IndexTuple, Scalar] = {}
        for raw, value in data.items():
            idx, sign = _sorted_with_sign(tuple(raw))
            if sign == 0:
                continue
            for i in idx:
                if not 1 <= i <= chart.dim:
                    raise ValueError(f"index {_shown(i)} out of range 1..{chart.dim}")
            c = chart.scalar(value)
            _add_term(terms, idx, c if sign > 0 else -c)
        return cls(chart, terms)

    @classmethod
    def zero(cls, chart: Chart):
        return cls(chart, {})

    @classmethod
    def from_scalar(cls, chart: Chart, value: Coefficient):
        return cls.make(chart, {(): value})

    # -- views ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {len(k) for k in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous element; 0 for the zero element."""
        ds = self.degrees()
        if not ds:
            return 0
        if len(ds) > 1:
            raise DegreeError(f"element has mixed degrees {sorted(ds)}")
        return ds.pop()

    def coefficient(self, indices: Sequence[int]) -> Scalar:
        idx, sign = _sorted_with_sign(tuple(indices))
        c = self.terms.get(idx, Scalar.zero(self.chart.dim))
        return -c if sign < 0 else c

    def part(self, k: int):
        return type(self)(
            self.chart, {i: c for i, c in self.terms.items() if len(i) == k}
        )

    def scalar_part(self) -> Scalar:
        """Coefficient of the empty monomial (the degree-0 part)."""
        return self.terms.get((), Scalar.zero(self.chart.dim))

    # -- linear structure -------------------------------------------------------

    def _check_same(self, other):
        if type(self) is not type(other):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.chart != other.chart:
            raise ChartMismatchError("operands live on different charts")

    def __add__(self, other):
        self._check_same(other)
        out = dict(self.terms)
        for i, c in other.terms.items():
            _add_term(out, i, c)
        return type(self)(self.chart, out)

    def __neg__(self):
        return type(self)(self.chart, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value: Coefficient):
        c = self.chart.scalar(value)
        if c.is_zero():
            return type(self)(self.chart, {})
        return type(self)(self.chart, {i: c * v for i, v in self.terms.items()})

    def map_coefficients(self, fn: Callable[[Scalar], Scalar]):
        out = {}
        for i, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[i] = v
        return type(self)(self.chart, out)

    # -- comparisons --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (type(self).__name__, self.chart, frozenset(self.terms.items()))
            )
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({_pretty(self)})"


class DifferentialForm(_GradedElement):
    """Element of Omega(R^n) with Scalar coefficients."""

    basis_symbol = "dx"


class MultivectorField(_GradedElement):
    """Element of Gamma(Lambda T R^n) with Scalar coefficients."""

    basis_symbol = "d_"


def _pretty(elem: _GradedElement) -> str:
    if elem.is_zero():
        return "0"
    sym = elem.basis_symbol
    parts = []
    for idx in sorted(elem.terms, key=lambda t: (len(t), t)):
        c = elem.terms[idx]
        mono = "^".join(f"{sym}{i}" for i in idx) or "1"
        parts.append(f"({scalar_to_str(c)})*{mono}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def dx(chart: Chart, *indices: int) -> DifferentialForm:
    """The basis form dx_{i1} ^ ... ^ dx_{ik}."""
    return DifferentialForm.make(chart, {tuple(indices): 1})


def partial(chart: Chart, *indices: int) -> MultivectorField:
    """The basis multivector d_{i1} ^ ... ^ d_{ik}."""
    return MultivectorField.make(chart, {tuple(indices): 1})


def function(chart: Chart, value: Coefficient) -> DifferentialForm:
    return DifferentialForm.from_scalar(chart, value)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def wedge(a: _GradedElement, b: _GradedElement) -> _GradedElement:
    """Graded-commutative wedge product of two same-kind elements."""
    a._check_same(b)
    out: dict[IndexTuple, Scalar] = {}
    for i1, c1 in a.terms.items():
        for i2, c2 in b.terms.items():
            idx, sign = _sorted_with_sign(i1 + i2)
            if sign == 0:
                continue
            c = c1 * c2
            _add_term(out, idx, c if sign > 0 else -c)
    return type(a)(a.chart, out)


def wedge_all(factors: Sequence[_GradedElement]) -> _GradedElement:
    out = factors[0]
    for f in factors[1:]:
        out = wedge(out, f)
    return out


def de_rham(alpha: DifferentialForm) -> DifferentialForm:
    """Exterior derivative; coefficients differentiate by the quotient rule.

    A coefficient is differentiated only along the variables that occur in
    it and are not in its term's index: every other dx_i term is zero.
    """
    chart = alpha.chart
    out: dict[IndexTuple, Scalar] = {}
    for idx, c in alpha.terms.items():
        for i in c.variables():
            if i in idx:
                continue
            dc = c.derivative(i)
            if dc.is_zero():
                continue
            merged, sign = _sorted_with_sign((i,) + idx)
            _add_term(out, merged, dc if sign > 0 else -dc)
    return DifferentialForm(chart, out)


def _contract_single(j: int, idx: IndexTuple) -> tuple[IndexTuple, int]:
    """iota_{d_j} dx_idx -> (remaining indices, sign); sign 0 if j not present."""
    if j not in idx:
        return idx, 0
    pos = idx.index(j)
    return idx[:pos] + idx[pos + 1 :], (-1) ** pos


def contract(P: MultivectorField, alpha: DifferentialForm) -> DifferentialForm:
    """Contraction iota_P alpha with iota_{X1^...^Xk} = iota_{X1} o ... o iota_{Xk}."""
    if not isinstance(P, MultivectorField) or not isinstance(alpha, DifferentialForm):
        raise TypeError("contract expects (MultivectorField, DifferentialForm)")
    if P.chart != alpha.chart:
        raise ChartMismatchError("operands live on different charts")
    chart = alpha.chart
    out: dict[IndexTuple, Scalar] = {}
    for J, g in P.terms.items():
        for I, f in alpha.terms.items():
            if len(J) > len(I):
                continue
            sign = 1
            rest = I
            # iota_{X1} o ... o iota_{Xk}: the last factor contracts first
            for j in reversed(J):
                rest, s = _contract_single(j, rest)
                if s == 0:
                    sign = 0
                    break
                sign *= s
            if sign == 0:
                continue
            c = g * f
            _add_term(out, rest, c if sign > 0 else -c)
    return DifferentialForm(chart, out)


def lie_derivative(P: MultivectorField, alpha: DifferentialForm) -> DifferentialForm:
    """The generalized Lie derivative  iota_P d - d iota_P."""
    return contract(P, de_rham(alpha)) - de_rham(contract(P, alpha))


def lie_cartan(X: MultivectorField, alpha: DifferentialForm) -> DifferentialForm:
    """Classical Lie derivative  d iota_X + iota_X d  of a vector field."""
    if X.degrees() - {1}:
        raise DegreeError("lie_cartan expects a vector field (degree 1)")
    return de_rham(contract(X, alpha)) + contract(X, de_rham(alpha))


def pairing(P: MultivectorField, alpha: DifferentialForm) -> Scalar:
    """Determinant pairing <P, alpha> of equal-degree elements.

    On basis monomials <d_I, dx_J> = delta_{IJ}; in particular
    <d_1 ^ d_2, dx1 ^ dx2> = 1.
    """
    if P.chart != alpha.chart:
        raise ChartMismatchError("operands live on different charts")
    total = Scalar.zero(P.chart.dim)
    for I, g in P.terms.items():
        c = alpha.terms.get(I)
        if c is not None:
            total = total + g * c
    return total


def multi_sharp(
    forms: Sequence[DifferentialForm], W: MultivectorField
) -> DifferentialForm:
    """The alternating multi-contraction (a1# ^ ... ^ ak#)(W).

    On a decomposable k-vector v1 ^ ... ^ vk the value is
    sum over permutations s of (-1)^s  (iota_{v_{s(1)}} a1) ^ ... ^ (iota_{v_{s(k)}} ak),
    extended Scalar-linearly in W.  Requires deg W == number of forms.

    The sum is a determinant whose products keep slot order, so it expands
    along the first slot (Laplace).  The minor of an index tuple S fills
    slots k-|S| .. k-1:
        minor(S) = sum_t (-1)^t (iota_{d_{S[t]}} a_{k-|S|}) ^ minor(S without S[t]),
    and the value on g d_J is g minor(J).  A minor depends on S alone, so
    every term of W that contains S shares it.
    """
    k = len(forms)
    chart = W.chart
    for a in forms:
        if a.chart != chart:
            raise ChartMismatchError("operands live on different charts")
    if W.degrees() - {k}:
        raise DegreeError(f"multivector degree {sorted(W.degrees())} != arity {k}")
    if k == 0:  # the empty wedge is 1: W's function as a 0-form
        return DifferentialForm(chart, dict(W.terms))
    # iota_{d_j} forms[slot] depends only on (j, slot), and a minor only on S
    pieces: dict[tuple[int, int], DifferentialForm] = {}
    minors: dict[IndexTuple, DifferentialForm] = {}

    def piece(j: int, slot: int) -> DifferentialForm:
        p = pieces.get((j, slot))
        if p is None:
            p = pieces[j, slot] = contract(partial(chart, j), forms[slot])
        return p

    def minor(S: IndexTuple) -> DifferentialForm:
        m = minors.get(S)
        if m is not None:
            return m
        slot = k - len(S)
        if len(S) == 1:
            m = minors[S] = piece(S[0], slot)
            return m
        terms: dict[IndexTuple, Scalar] = {}
        for t, j in enumerate(S):
            head = piece(j, slot)
            if head.is_zero():
                continue
            rest = minor(S[:t] + S[t + 1:])
            if rest.is_zero():
                continue
            for idx, c in wedge(head, rest).terms.items():
                _add_term(terms, idx, -c if t % 2 else c)
        m = minors[S] = DifferentialForm(chart, terms)
        return m

    out: dict[IndexTuple, Scalar] = {}
    for J, g in W.terms.items():
        for idx, c in minor(J).terms.items():
            _add_term(out, idx, g * c)
    return DifferentialForm(chart, out)


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis bracket
# ---------------------------------------------------------------------------


def schouten(P: MultivectorField, Q: MultivectorField) -> MultivectorField:
    """Schouten-Nijenhuis bracket of multivector fields.

    Conventions: [X, Y] is the Lie bracket on vector fields, [X, f] = X(f),
    and the graded symmetry [P, Q] = -(-1)^((p-1)(q-1)) [Q, P] holds.
    The bracket is computed termwise from the decomposable expansion
        [X1^...^Xp, Y1^...^Yq] =
            sum_{a,b} (-1)^(a+b) [Xa, Yb] ^ X...(no a)... ^ Y...(no b)...
    """
    if not isinstance(P, MultivectorField) or not isinstance(Q, MultivectorField):
        raise TypeError("schouten expects multivector fields")
    if P.chart != Q.chart:
        raise ChartMismatchError("operands live on different charts")
    terms: dict[IndexTuple, Scalar] = {}
    for (I, f) in P.terms.items():
        for (J, g) in Q.terms.items():
            _schouten_term(terms, I, f, J, g)
    return MultivectorField(P.chart, terms)


def _schouten_term(
    terms: dict[IndexTuple, Scalar],
    I: IndexTuple, f: Scalar, J: IndexTuple, g: Scalar,
) -> None:
    """Add [f d_I, g d_J] into terms.

    Each summand is c (d_v h) d_K for a coefficient h, a variable v and an
    index tuple K; it is skipped before any derivative or product when K
    repeats an index or v does not occur in h.
    """
    p, q = len(I), len(J)
    if p == 0 and q == 0:
        return
    if q == 0:
        _bracket_with_function(terms, I, f, g, 1)
        return
    if p == 0:
        # graded symmetry with p = 0: [f, Q] = -(-1)^(q-1) [Q, f]
        _bracket_with_function(terms, J, g, f, (-1) ** q)
        return
    f_vars, g_vars = f.variables(), g.variables()

    def add(indices: IndexTuple, c: Scalar, h: Scalar, h_vars: list[int], v: int, sign: int):
        """terms += sign * c (d_v h) d_indices"""
        if v not in h_vars:
            return
        idx, s = _sorted_with_sign(indices)
        if not s:
            return
        dh = h.derivative(v)
        if not dh.is_zero():
            dh = c * dh
            _add_term(terms, idx, dh if s * sign > 0 else -dh)

    for a in range(1, p + 1):
        for b in range(1, q + 1):
            rest = I[:a - 1] + I[a:] + J[:b - 1] + J[b:]
            base = (-1) ** (a + b)
            if a == 1 and b == 1:
                # [f d_{i1}, g d_{j1}] = f (d_{i1} g) d_{j1} - g (d_{j1} f) d_{i1}
                add((J[0],) + rest, f, g, g_vars, I[0], base)
                add((I[0],) + rest, g, f, f_vars, J[0], -base)
            elif a == 1:
                # [f d_{i1}, d_{jb}] = -(d_{jb} f) d_{i1}
                add((I[0],) + rest, g, f, f_vars, J[b - 1], -base)
            elif b == 1:
                # [d_{ia}, g d_{j1}] = (d_{ia} g) d_{j1}
                add((J[0],) + rest, f, g, g_vars, I[a - 1], base)


def _bracket_with_function(
    terms: dict[IndexTuple, Scalar], I: IndexTuple, f: Scalar, g: Scalar, sign: int
) -> None:
    """Add sign * [f d_I, g] = sign * sum_a (-1)^(p-a) f (d_{ia} g) d_{I minus ia}
    into terms; only the variables of I that occur in g contribute."""
    p = len(I)
    g_vars = g.variables()
    for a in range(1, p + 1):
        if I[a - 1] not in g_vars:
            continue
        c = g.derivative(I[a - 1])
        if not c.is_zero():
            c = f * c
            _add_term(terms, I[:a - 1] + I[a:], c if sign * (-1) ** (p - a) > 0 else -c)


def vf_commutator(X: MultivectorField, Y: MultivectorField) -> MultivectorField:
    """Lie bracket of vector fields (degree-1 Schouten bracket)."""
    if (X.degrees() - {1}) or (Y.degrees() - {1}):
        raise DegreeError("commutator expects vector fields")
    return schouten(X, Y)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(elem: _GradedElement, point: Sequence) -> _GradedElement:
    """Substitute a rational point (a sequence of ints, Fractions or
    strings) into all coefficients; each is `Scalar.evaluate`.

    Raises PoleError, naming `point`, when some denominator vanishes there.
    """
    n = elem.chart.dim
    if len(point) != n:
        raise ValueError("point dimension mismatch")

    def ev(c: Scalar) -> Scalar:
        return Scalar.const(n, c.evaluate(point))

    return elem.map_coefficients(ev)


def grid_zeros(elem: _GradedElement, coords: Sequence) -> list[bool | None]:
    """Is `evaluate(elem, point)` zero, at each point of coords^n in the
    order of `itertools.product`?

    None marks a point where some coefficient's denominator vanishes, at
    which `evaluate` raises PoleError.  Each numerator and each distinct
    denominator is tested on the whole grid by `Poly.grid_zeros`.
    """
    coefficients = elem.terms.values()
    zeros = [True] * len(coords) ** elem.chart.dim
    for c in coefficients:
        if not any(zeros):
            break
        zeros = [a and b for a, b in zip(zeros, c.num.grid_zeros(coords))]
    # coefficients often share a denominator; each distinct one is tested once
    for den in {c.den for c in coefficients}:
        if not den.is_constant():
            zeros = [None if pole else z for z, pole in zip(zeros, den.grid_zeros(coords))]
    return zeros


# ---------------------------------------------------------------------------
# JSON serialization:
#   { "chart": n, "terms": [ {"degree": k, "indices": [...],
#                             "num": poly-string, "den": poly-string} ] }
# ---------------------------------------------------------------------------


def to_json(elem: _GradedElement) -> dict:
    from .rational import poly_to_str

    items = []
    for idx in sorted(elem.terms, key=lambda t: (len(t), t)):
        c = elem.terms[idx]
        items.append(
            {
                "degree": len(idx),
                "indices": list(idx),
                "num": poly_to_str(c.num),
                "den": poly_to_str(c.den),
            }
        )
    return {"chart": elem.chart.dim, "terms": items}


def _json_int(value, field: str) -> int:
    """An integer field of a payload; a bool, float or string is refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} {_shown(value)} is not an integer")
    return value


def _from_json(cls, data: Mapping) -> _GradedElement:
    try:
        n = _json_int(data["chart"], "chart")
        chart = Chart(n)
        terms = {}
        for item in data["terms"]:
            idx = tuple(_json_int(i, "index") for i in item["indices"])
            if _json_int(item["degree"], "degree") != len(idx):
                raise ValueError(
                    f"degree {_quote(str(item['degree']))} does not match "
                    f"indices {_quote(str(idx))}"
                )
            num = poly_from_str(str(item["num"]), n)
            den = poly_from_str(str(item["den"]), n)
            if den.is_zero():
                raise ValueError(f"zero denominator {_quote(str(item['den']))} at {idx}")
            terms[idx] = Scalar(num, den)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed element payload: {exc}") from exc
    return cls.make(chart, terms)


def form_from_json(data: Mapping) -> DifferentialForm:
    return _from_json(DifferentialForm, data)


def field_from_json(data: Mapping) -> MultivectorField:
    return _from_json(MultivectorField, data)
