"""Exact linear algebra over the Scalar field (rationals or rational functions).

Matrices are tuples of tuples of Scalar, treated as immutable.  A matrix whose
entries are all constants (over any number of variables) is worked on Python
ints: each row is cleared by the lcm of its denominators once, and Scalars are
built only for the results.  The route is chosen from the entries alone.

There are two elimination loops.  `_bareiss` runs fraction-free on cleared
rows, of ints for a constant matrix and of polynomials otherwise, dividing
exactly and taking no gcd; determinants and span membership are read from it,
and on ints it also does the Gauss-Jordan back-elimination that `rref` reads.
`rref` of a matrix with a non-constant entry scales each row by the lcm of
its denominators and then runs over the field with gcd-reduced entries at
every step.  Ranks, kernels and linear solves (`solve(A, B)` is the right
block of rref([A | B])) are read from `rref`.  On polynomial rows the
fraction-free Gauss-Jordan loop is slower than the field loop, so it is not
used there.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .rational import (
    Poly,
    Scalar,
    poly_divexact,
    poly_lcm,
)

Matrix = tuple[tuple[Scalar, ...], ...]
Vector = tuple[Scalar, ...]


def mat(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def zeros(nrows: int, ncols: int, nvars: int) -> Matrix:
    z = Scalar.zero(nvars)
    return tuple(tuple(z for _ in range(ncols)) for _ in range(nrows))


def identity(n: int, nvars: int) -> Matrix:
    z = Scalar.zero(nvars)
    o = Scalar.one(nvars)
    return tuple(
        tuple(o if i == j else z for j in range(n)) for i in range(n)
    )


def dims(A: Matrix) -> tuple[int, int]:
    return len(A), len(A[0]) if A else 0


def transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A)) if A else ()


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_neg(A: Matrix) -> Matrix:
    return tuple(tuple(-a for a in row) for row in A)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, k = dims(A)
    k2, m = dims(B)
    if k != k2:
        raise ValueError(f"shape mismatch {n}x{k} @ {k2}x{m}")
    Bt = transpose(B)
    if n and k and m:
        product = _int_product(A, Bt)
        if product is not None:
            return product
    out = []
    for row in A:
        out.append(
            tuple(dot(row, col) for col in Bt)
        )
    return tuple(out)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    total = Scalar.zero(u[0].nvars)
    for a, b in zip(u, v):
        if not (a.is_zero() or b.is_zero()):
            total = total + a * b
    return total


def mat_vec(A: Matrix, v: Sequence[Scalar]) -> Vector:
    if A and v:
        product = _int_product(A, (tuple(v),))
        if product is not None:
            return tuple(row[0] for row in product)
    return tuple(dot(row, v) for row in A)


def _int_product(A: Matrix, Bt: Matrix) -> Matrix | None:
    """A @ B on ints when both are constant (B given by its columns Bt), else None.

    Entry (i, j) is the int dot product of row i of A cleared by its lcm a_i
    and column j of B cleared by its lcm b_j, over a_i * b_j.
    """
    nvars = A[0][0].nvars
    cleared_a = _int_rows(A, nvars)
    if cleared_a is None:
        return None
    cleared_b = _int_rows(Bt, nvars)
    if cleared_b is None:
        return None
    rows, row_lcms = cleared_a
    cols, col_lcms = cleared_b
    zero = Scalar.zero(nvars)
    out = []
    for row, a in zip(rows, row_lcms):
        out_row = []
        for col, b in zip(cols, col_lcms):
            total = sum(map(operator.mul, row, col))
            out_row.append(
                Scalar.const(nvars, Fraction(total, a * b)) if total else zero
            )
        out.append(tuple(out_row))
    return tuple(out)


def mat_scale(A: Matrix, c: Scalar) -> Matrix:
    return tuple(tuple(c * a for a in row) for row in A)


def is_skew(A: Matrix) -> bool:
    n, m = dims(A)
    if n != m:
        return False
    return all(A[i][j] == -A[j][i] for i in range(n) for j in range(i, n))


# ---------------------------------------------------------------------------
# Echelon forms over the field
# ---------------------------------------------------------------------------


def rref(A: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, exact over the field.

    A constant matrix is reduced by fraction-free Gauss-Jordan on ints, which
    leaves each pivot row as its last pivot p times the reduced row, so each
    entry is built once as a / p.  RREF is unique, so both routes agree.
    Otherwise the field loop runs; a matrix with real denominators first has
    each row scaled by their lcm, which leaves the RREF unchanged and keeps
    a denominator shared by a whole row out of every gcd.
    """
    if not A or not A[0]:
        return A, ()
    nvars = A[0][0].nvars
    cleared = _int_rows(A, nvars)
    if cleared is not None:
        return _int_rref(cleared[0], nvars)
    nr, nc = len(A), len(A[0])
    zero = Scalar.zero(nvars)
    pivots: list[int] = []
    r = 0
    if all(a.is_polynomial() for row in A for a in row):
        rows = [list(row) for row in A]
    else:
        rows = [[Scalar.from_poly(p) for p in row] for row in _clear_rows(A)[0]]
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [zero if j < c else inv * rows[r][j] for j in range(nc)]
        for i in range(nr):
            if i == r or rows[i][c].is_zero():
                continue
            f = rows[i][c]
            rows[i] = [
                rows[i][j] - f * rows[r][j] for j in range(nc)
            ]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return mat(rows), tuple(pivots)


def _int_rref(rows: list[list[int]], nvars: int) -> tuple[Matrix, tuple[int, ...]]:
    """RREF of a constant matrix from its cleared int rows, as Scalars."""
    pivots, _ = _bareiss(rows, back=True)
    zero = Scalar.zero(nvars)
    one = Scalar.one(nvars)
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        out.append(tuple(
            zero if not a else one if a == p else Scalar.const(nvars, Fraction(a, p))
            for a in row
        ))
    zero_row = (zero,) * len(rows[0])
    out.extend(zero_row for _ in range(len(rows) - len(pivots)))
    return tuple(out), pivots


def rank(A: Matrix) -> int:
    return len(rref(A)[1])


def nullspace(A: Matrix) -> list[Vector]:
    """Basis of the right kernel, derived from the RREF (one vector per free column)."""
    if not A:
        return []
    R, pivots = rref(A)
    nr, nc = dims(A)
    nvars = A[0][0].nvars
    zero = Scalar.zero(nvars)
    one = Scalar.one(nvars)
    pivot_set = set(pivots)
    basis = []
    for free in range(nc):
        if free in pivot_set:
            continue
        v = [zero] * nc
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][free]
        basis.append(tuple(v))
    return basis


def solve(A: Matrix, B: Matrix) -> Matrix:
    """X with A X = B, read from the right block of rref([A | B]).

    A singular A raises ZeroDivisionError; a non-square A, or a B whose row
    count differs from A's, raises ValueError.
    """
    n, m = dims(A)
    if n != m:
        raise ValueError("solve with a non-square matrix")
    if len(B) != n:
        raise ValueError(f"shape mismatch: {n}x{n} system with {len(B)} right-hand rows")
    if n == 0:
        return ()
    R, pivots = rref(mat([row + b for row, b in zip(A, B)]))
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(row[n:] for row in R)


def inverse(A: Matrix) -> Matrix:
    """Exact inverse: solve(A, I)."""
    nvars = A[0][0].nvars if A and A[0] else 0
    return solve(A, identity(len(A), nvars))


# ---------------------------------------------------------------------------
# Fraction-free elimination: determinants and span membership
# ---------------------------------------------------------------------------


def _int_rows(A: Matrix, nvars: int) -> tuple[list[list[int]], list[int]] | None:
    """Each row of a constant matrix times the lcm of its denominators.

    Returns (int rows, row lcms), or None if some entry is not a constant over
    `nvars` variables: its denominator is not the shared unit, or its
    numerator has a term of nonzero exponent.
    """
    unit = Poly.one(nvars)
    key = (0,) * nvars
    rows: list[list[int]] = []
    lcms: list[int] = []
    for row in A:
        values = []
        for a in row:
            terms = a.num.terms
            if a.den is not unit or len(terms) > 1:
                return None
            c = terms.get(key) if terms else 0
            if c is None:
                return None
            values.append(c)
        m = math.lcm(*[c.denominator for c in values])
        rows.append([c.numerator * (m // c.denominator) for c in values])
        lcms.append(m)
    return rows, lcms


def _clear_rows(A: Matrix) -> tuple[list[list[Poly]], list[Poly]]:
    """Scale each row by the lcm of its denominators; returns (poly rows, lcms)."""
    nvars = A[0][0].nvars
    rows: list[list[Poly]] = []
    lcms: list[Poly] = []
    for row in A:
        m = Poly.one(nvars)
        for a in row:
            m = poly_lcm(m, a.den)
        cleared = []
        for a in row:
            cleared.append(a.num * poly_divexact(m, a.den))
        rows.append(cleared)
        lcms.append(m)
    return rows, lcms


def _cleared(A: Matrix) -> tuple[list[list], list]:
    """Row-cleared A: int rows and lcms if A is constant, else polynomial ones."""
    return _int_rows(A, A[0][0].nvars) or _clear_rows(A)


def _bareiss(rows: list[list], back: bool = False) -> tuple[tuple[int, ...], int]:
    """Fraction-free elimination, in place, on rows of ints or of polynomials.

    Returns (pivot columns, sign of the row swaps); the rank over the fraction
    field is the number of pivots.  Each update is (piv*a - f*b) / prev with
    prev the previous pivot, and every division is exact, so no gcd is
    taken.  For a square matrix of full rank the last pivot is sign * det.
    With `back`, the rows above each pivot take the same update
    (Gauss-Jordan), so every pivot row ends as the last pivot times its
    reduced row.
    """
    n, m = len(rows), len(rows[0])
    if isinstance(rows[0][0], Poly):
        nvars = rows[0][0].nvars
        zero, prev, div = Poly.zero(nvars), Poly.one(nvars), poly_divexact
    else:
        zero, prev, div = 0, 1, operator.floordiv
    pivots: list[int] = []
    sign = 1
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if rows[i][c] != zero), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        row_r = rows[r]
        piv = row_r[c]
        for i in range(n) if back else range(r + 1, n):
            if i == r:
                continue
            row_i = rows[i]
            f = row_i[c]
            # above the pivot row, columns before c hold reduced entries
            for j in range(c + 1 if i > r else 0, m):
                row_i[j] = div(piv * row_i[j] - f * row_r[j], prev)
            row_i[c] = zero
        prev = piv
        pivots.append(c)
        r += 1
        if r == n:
            break
    return tuple(pivots), sign


def det(A: Matrix) -> Scalar:
    """Exact determinant: the signed last Bareiss pivot over the row lcms."""
    n, m = dims(A)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Scalar.one(0)
    nvars = A[0][0].nvars
    rows, lcms = _cleared(A)
    pivots, sign = _bareiss(rows)
    if len(pivots) < n:
        return Scalar.zero(nvars)
    last = rows[n - 1][n - 1]
    if isinstance(last, int):
        return Scalar.const(nvars, Fraction(sign * last, math.prod(lcms)))
    denom = Poly.one(nvars)
    for m_ in lcms:
        denom = denom * m_
    result = Scalar(last, denom)
    return -result if sign < 0 else result


def in_span(vectors: Sequence[Vector], w: Vector) -> bool:
    """Is w a Scalar-linear combination of the given vectors?

    Decided by a fraction-free rank comparison, which stays polynomial even
    over the rational-function field.
    """
    if all(c.is_zero() for c in w):
        return True
    if not vectors:
        return False
    before = _bareiss(_cleared(mat(vectors))[0])[0]
    after = _bareiss(_cleared(mat(list(vectors) + [tuple(w)]))[0])[0]
    return len(before) == len(after)


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------


def clear_matrix(A: Matrix) -> tuple[list[list[Poly]], Poly]:
    """Scale the whole matrix by the lcm D of all denominators.

    Returns (polynomial entries of D*A, D).  Useful for Pfaffian
    computations, where a uniform polynomial matrix avoids fraction-field
    gcd churn: Pf_S(D*A) = D^{|S|/2} Pf_S(A).
    """
    nvars = A[0][0].nvars
    D = Poly.one(nvars)
    for row in A:
        for a in row:
            D = poly_lcm(D, a.den)
    rows = [
        [a.num * poly_divexact(D, a.den) for a in row] for row in A
    ]
    return rows, D


def pfaffian_poly(rows: Sequence[Sequence[Poly]],
                  subset: Sequence[int] | None = None) -> Poly:
    """Pfaffian of a principal submatrix with polynomial entries."""
    n = len(rows)
    idx = tuple(range(n)) if subset is None else tuple(subset)
    nvars = rows[0][0].nvars if rows else 0
    if len(idx) % 2:
        return Poly.zero(nvars)
    return _pf_poly(rows, idx, nvars)


def _pf_poly(rows, idx: tuple[int, ...], nvars: int) -> Poly:
    if not idx:
        return Poly.one(nvars)
    total = Poly.zero(nvars)
    i0 = idx[0]
    for pos in range(1, len(idx)):
        j = idx[pos]
        a = rows[i0][j]
        if a.is_zero():
            continue
        rest = idx[1:pos] + idx[pos + 1 :]
        term = a * _pf_poly(rows, rest, nvars)
        # expansion along the first row: (-1)^pos alternates starting at +
        if pos % 2 == 0:
            term = -term
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------


def evaluate_matrix(A: Matrix, point: Sequence[Fraction]) -> Matrix:
    """Evaluate all entries at a rational point (Scalars over zero variables)."""
    out = []
    for row in A:
        out.append(tuple(Scalar.const(0, a.evaluate(point)) for a in row))
    return tuple(out)


def from_fractions(rows: Sequence[Sequence], nvars: int) -> Matrix:
    return tuple(
        tuple(Scalar.const(nvars, Fraction(v)) for v in row) for row in rows
    )
