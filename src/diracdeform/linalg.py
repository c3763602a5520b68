"""Exact linear algebra over the Scalar field (rationals or rational functions).

Matrices are tuples of tuples of Scalar, treated as immutable.  There are two
elimination loops.  `rref` runs over the field with gcd-reduced entries at
every step; ranks, kernels and inverses (the right block of rref([A | I])) are
read from it.  `_bareiss` runs fraction-free on the row-cleared polynomial
matrix, dividing exactly and taking no gcd; determinants and span membership
are read from it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rational import (
    Poly,
    Scalar,
    degree_cap,
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
    return tuple(dot(row, v) for row in A)


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
    """Reduced row echelon form and pivot columns, exact over the field."""
    if not A:
        return A, ()
    rows = [list(r) for r in A]
    nr, nc = len(rows), len(rows[0])
    nvars = rows[0][0].nvars if nc else 0
    zero = Scalar.zero(nvars)
    pivots: list[int] = []
    r = 0
    with degree_cap(None):
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


def inverse(A: Matrix) -> Matrix:
    """Exact inverse, read from the right block of rref([A | I])."""
    n, m = dims(A)
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    if n == 0:
        return ()
    eye = identity(n, A[0][0].nvars)
    R, pivots = rref(mat([row + e for row, e in zip(A, eye)]))
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(row[n:] for row in R)


# ---------------------------------------------------------------------------
# Fraction-free elimination: determinants and span membership
# ---------------------------------------------------------------------------


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


def _bareiss(A: Matrix) -> tuple[list[list[Poly]], int, int, list[Poly]]:
    """Bareiss forward elimination on the row-cleared matrix (no field ops).

    Returns (rows, rank, sign, lcms): the eliminated polynomial rows, the rank
    over the fraction field, the sign of the row swaps and the row lcms.  For
    a square matrix of full rank the last pivot is sign * det of the cleared
    matrix.  Every division is exact, so no gcd is taken.  Callers hold
    `degree_cap(None)`.
    """
    n, m = dims(A)
    rows, lcms = _clear_rows(A)
    nvars = A[0][0].nvars
    zero = Poly.zero(nvars)
    prev = Poly.one(nvars)
    sign = 1
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        row_r = rows[r]
        piv = row_r[c]
        for i in range(r + 1, n):
            row_i = rows[i]
            f = row_i[c]
            for j in range(c + 1, m):
                row_i[j] = poly_divexact(piv * row_i[j] - f * row_r[j], prev)
            row_i[c] = zero
        prev = piv
        r += 1
        if r == n:
            break
    return rows, r, sign, lcms


def det(A: Matrix) -> Scalar:
    """Exact determinant: the signed last Bareiss pivot over the row lcms."""
    n, m = dims(A)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Scalar.one(0)
    nvars = A[0][0].nvars
    with degree_cap(None):
        rows, r, sign, lcms = _bareiss(A)
        if r < n:
            return Scalar.zero(nvars)
        denom = Poly.one(nvars)
        for m_ in lcms:
            denom = denom * m_
        result = Scalar(rows[n - 1][n - 1], denom)
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
    with degree_cap(None):
        return _bareiss(mat(vectors))[1] == _bareiss(mat(list(vectors) + [tuple(w)]))[1]


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------


def clear_matrix(A: Matrix) -> tuple[list[list[Poly]], Poly]:
    """Scale the whole matrix by the lcm D of all denominators.

    Returns (polynomial entries of D*A, D).  Useful for Pfaffian and kernel
    computations, where a uniform polynomial matrix avoids fraction-field
    gcd churn: Pf_S(D*A) = D^{|S|/2} Pf_S(A).
    """
    nvars = A[0][0].nvars
    with degree_cap(None):
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
    with degree_cap(None):
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


def pfaffian(A: Matrix, subset: Sequence[int] | None = None) -> Scalar:
    """Pfaffian of a principal submatrix of a skew matrix (0-based indices).

    Pf of the empty matrix is 1; odd-sized subsets give 0.  Computed on the
    denominator-cleared matrix, with a single reconstruction at the end.
    """
    n, m = dims(A)
    if n != m:
        raise ValueError("pfaffian of a non-square matrix")
    idx = tuple(range(n)) if subset is None else tuple(subset)
    nvars = A[0][0].nvars if A else 0
    if len(idx) % 2:
        return Scalar.zero(nvars)
    if not idx:
        return Scalar.one(nvars)
    with degree_cap(None):
        rows, D = clear_matrix(A)
        pf = _pf_poly(rows, idx, nvars)
        return Scalar(pf, D.pow(len(idx) // 2))


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
