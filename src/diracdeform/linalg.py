"""Exact linear algebra over the Scalar field (rationals or rational functions).

A `Matrix` is immutable and holds one of two representations, chosen from
its entries by `mat`, the one constructor from Scalars:

- A constant matrix (every entry a constant, over any number of variables)
  holds int rows with one positive int denominator per row: entry (i, j) is
  ints[i][j] / dens[i].  Each row is kept reduced, so its denominator is the
  lcm of its entries' denominators.  Its entry Scalars are built only when a
  caller reads an entry, and only once.  Every operation on constant
  matrices stays on these ints from end to end: products, sums, transposes,
  stacking and column slicing rescale rows by lcms, and `==` and `is_skew`
  compare by cross-multiplication, a_ij * d'_i == a'_ij * d_i.
- Any other matrix holds its Scalar rows and clears them (`clear_rows`: each
  row times the lcm of its denominators) at most once, on first use.

Vectors stay tuples of Scalars.

There are two elimination loops, and each runs on both rings: on the
cleared rows, of ints for a constant matrix and of polynomials otherwise.
`_bareiss` runs forward only and fraction-free, dividing exactly and taking
no gcd; determinants, span membership and ranks are read from it.  `_rref`
is Gauss-Jordan on primitive rows: each pivot step changes only the rows
with a nonzero entry in its column, and divides each of them by its
content.  `rref`, kernels and linear solves are read from it (`solve(A, B)`
is the right block of rref([A | B]), and `solve_det` reads det(A) from the
same elimination).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

from .rational import (
    PoleError,
    Poly,
    Scalar,
    as_point,
    poly_divexact,
    poly_gcd,
    poly_lcm,
)

Vector = tuple[Scalar, ...]


class Matrix:
    """An immutable matrix over the Scalar field; build one with `mat`.

    It has a length (its row count), row indexing (a row is a tuple of
    Scalars), row slicing (a Matrix) and iteration over its rows.  It equals
    a Matrix or a tuple of tuples with the same entries and hashes like that
    tuple.  A matrix without rows has no columns either and is over zero
    variables, as an empty tuple would be read.
    """

    __slots__ = ("nrows", "ncols", "nvars", "_ints", "_dens", "_rows", "_clear", "_hash")

    def __init__(self, nrows: int, ncols: int, nvars: int, ints=None, dens=None, rows=None):
        self.nrows = nrows
        self.ncols = ncols if nrows else 0
        self.nvars = nvars if nrows else 0
        # a constant matrix: int rows (never mutated) and row denominators
        self._ints: list[list[int]] | None = ints
        self._dens: list[int] | None = dens
        # the Scalar rows: always set for a non-constant matrix
        self._rows: tuple[Vector, ...] | None = rows
        self._clear: tuple[list[list[Poly]], list[Poly]] | None = None
        self._hash: int | None = None

    def is_constant(self) -> bool:
        return self._ints is not None

    def _scalars(self) -> tuple[Vector, ...]:
        rows = self._rows
        if rows is None:
            nvars = self.nvars
            zero, one = Scalar.zero(nvars), Scalar.one(nvars)
            rows = self._rows = tuple(
                tuple(
                    zero if not a else one if a == d
                    else Scalar.const(nvars, Fraction(a, d))
                    for a in row
                )
                for row, d in zip(self._ints, self._dens)
            )
        return rows

    def __len__(self) -> int:
        return self.nrows

    def __iter__(self):
        return iter(self._scalars())

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return self._scalars()[index]
        if self._ints is None:
            return mat(self._rows[index])
        ints = self._ints[index]
        rows = self._rows[index] if self._rows is not None else None
        return Matrix(len(ints), self.ncols, self.nvars, ints, self._dens[index], rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, tuple):
            return self._scalars() == other
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        if self._ints is None or other._ints is None or self.nvars != other.nvars:
            return self._scalars() == other._scalars()
        return all(
            a == b if d == e else all(x * e == y * d for x, y in zip(a, b))
            for a, d, b, e in zip(self._ints, self._dens, other._ints, other._dens)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._scalars())
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({self._scalars()!r})"


def mat(rows: Matrix | Sequence[Sequence[Scalar]]) -> Matrix:
    """The matrix with these Scalar rows; a Matrix is returned unchanged.

    A matrix whose entries are all constants is cleared to int rows here,
    and only here.
    """
    if isinstance(rows, Matrix):
        return rows
    rows = tuple(tuple(row) for row in rows)
    if not rows:
        return Matrix(0, 0, 0, [], [])
    if len(set(map(len, rows))) > 1:
        raise ValueError("rows of different lengths")
    nvars = rows[0][0].nvars if rows[0] else 0
    cleared = _int_rows(rows, nvars)
    if cleared is None:
        return _general(rows, nvars)
    return Matrix(len(rows), len(rows[0]), nvars, cleared[0], cleared[1], rows)


def _general(rows: tuple[Vector, ...], nvars: int) -> Matrix:
    """A matrix with a non-constant entry, from its Scalar rows."""
    return Matrix(len(rows), len(rows[0]), nvars, rows=rows)


def _reduced(ints: list[list[int]], dens: list[int], nvars: int, ncols: int) -> Matrix:
    """The constant matrix with entries ints[i][j] / dens[i] (dens positive),
    each row divided by the gcd of its ints and its denominator."""
    out_ints, out_dens = [], []
    for row, d in zip(ints, dens):
        g = math.gcd(d, *row)
        if g != 1:
            row = [a // g for a in row]
            d //= g
        out_ints.append(row)
        out_dens.append(d)
    return Matrix(len(ints), ncols, nvars, out_ints, out_dens)


def zeros(nrows: int, ncols: int, nvars: int) -> Matrix:
    return Matrix(nrows, ncols, nvars, [[0] * ncols for _ in range(nrows)], [1] * nrows)


def identity(n: int, nvars: int) -> Matrix:
    ints = [[0] * n for _ in range(n)]
    for i in range(n):
        ints[i][i] = 1
    return Matrix(n, n, nvars, ints, [1] * n)


def dims(A: Matrix) -> tuple[int, int]:
    A = mat(A)
    return A.nrows, A.ncols


def _lcm_rows(ints: list[list[int]], dens: list[int]) -> tuple[list[list[int]], int]:
    """Rows rescaled to the lcm L of their denominators, and L."""
    L = math.lcm(*dens)
    return [row if d == L else [a * (L // d) for a in row] for row, d in zip(ints, dens)], L


def transpose(A: Matrix) -> Matrix:
    A = mat(A)
    if A._ints is None:
        return _general(tuple(zip(*A._rows)), A.nvars)
    rows, L = _lcm_rows(A._ints, A._dens)
    cols = [list(col) for col in zip(*rows)]
    return _reduced(cols, [L] * len(cols), A.nvars, A.nrows)


def hstack(*blocks: Matrix) -> Matrix:
    """The blocks side by side; all have the same number of rows."""
    blocks = [mat(b) for b in blocks]
    n = blocks[0].nrows
    if any(b.nrows != n for b in blocks):
        raise ValueError("hstack of blocks with different row counts")
    if not n:
        return mat(())
    nvars = blocks[0].nvars
    ncols = sum(b.ncols for b in blocks)
    if any(b._ints is None or b.nvars != nvars for b in blocks):
        rows = tuple(sum(rows, ()) for rows in zip(*blocks))
        # a block with a non-constant entry makes the whole matrix non-constant
        return _general(rows, nvars) if any(b._ints is None for b in blocks) else mat(rows)
    ints, dens = [], []
    for i in range(n):
        L = math.lcm(*[b._dens[i] for b in blocks])
        row = []
        for b in blocks:
            d = b._dens[i]
            row.extend(b._ints[i] if d == L else [a * (L // d) for a in b._ints[i]])
        ints.append(row)
        dens.append(L)
    return Matrix(n, ncols, nvars, ints, dens)


def vstack(*blocks: Matrix) -> Matrix:
    """The blocks one above another; all with rows have the same number of
    columns, and a block without rows is skipped."""
    blocks = [b for b in map(mat, blocks) if b.nrows]
    if len(blocks) < 2:
        return blocks[0] if blocks else mat(())
    nvars, ncols = blocks[0].nvars, blocks[0].ncols
    if any(b.ncols != ncols for b in blocks):
        raise ValueError("vstack of blocks with different column counts")
    if any(b._ints is None or b.nvars != nvars for b in blocks):
        rows = tuple(row for b in blocks for row in b)
        return _general(rows, nvars) if any(b._ints is None for b in blocks) else mat(rows)
    ints = [row for b in blocks for row in b._ints]
    return Matrix(len(ints), ncols, nvars, ints, [d for b in blocks for d in b._dens])


def columns(A: Matrix, start: int, stop: int) -> Matrix:
    """The matrix of columns start..stop-1 of A."""
    A = mat(A)
    if A._ints is None:
        return mat([row[start:stop] for row in A._rows])
    ncols = len(range(A.ncols)[start:stop])
    return _reduced([row[start:stop] for row in A._ints], A._dens, A.nvars, ncols)


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    A, B = mat(A), mat(B)
    if dims(A) != dims(B):
        raise ValueError(f"shape mismatch {dims(A)} + {dims(B)}")
    if A._ints is None or B._ints is None or A.nvars != B.nvars:
        return mat([tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)])
    ints, dens = [], []
    for a, d, b, e in zip(A._ints, A._dens, B._ints, B._dens):
        if d == e:
            ints.append([x + y for x, y in zip(a, b)])
            dens.append(d)
        else:
            L = math.lcm(d, e)
            s, t = L // d, L // e
            ints.append([x * s + y * t for x, y in zip(a, b)])
            dens.append(L)
    return _reduced(ints, dens, A.nvars, A.ncols)


def mat_neg(A: Matrix) -> Matrix:
    A = mat(A)
    if A._ints is None:
        return _general(tuple(tuple(-a for a in row) for row in A._rows), A.nvars)
    ints = [[-a for a in row] for row in A._ints]
    return Matrix(A.nrows, A.ncols, A.nvars, ints, A._dens)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """A @ B.  A matrix without rows gives the empty product."""
    A, B = mat(A), mat(B)
    n, k = dims(A)
    k2, m = dims(B)
    if not n:
        return A
    if k != k2:
        raise ValueError(f"shape mismatch {n}x{k} @ {k2}x{m}")
    if A._ints is not None and B._ints is not None and A.nvars == B.nvars:
        return _int_product(A, B)
    Bt = transpose(B)
    return mat([tuple(dot(row, col) for col in Bt) for row in A])


def _int_product(A: Matrix, B: Matrix) -> Matrix:
    """A @ B for constant A and B: the rows of B are rescaled to the lcm L of
    their denominators, so entry (i, j) is an int dot product over d_i * L."""
    rows_b, L = _lcm_rows(B._ints, B._dens)
    cols = list(zip(*rows_b))
    ints, dens = [], []
    for row, d in zip(A._ints, A._dens):
        ints.append([sum(map(operator.mul, row, col)) for col in cols])
        dens.append(d * L)
    return _reduced(ints, dens, A.nvars, B.ncols)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    total = Scalar.zero(u[0].nvars)
    for a, b in zip(u, v):
        if not (a.is_zero() or b.is_zero()):
            total = total + a * b
    return total


def mat_vec(A: Matrix, v: Sequence[Scalar]) -> Vector:
    A = mat(A)
    if not A.nrows:
        return ()
    row = mat([v])
    if A._ints is None or row._ints is None:
        return tuple(dot(r, v) for r in A)
    return mat_mul(row, transpose(A))[0]


def mat_scale(A: Matrix, c: Scalar) -> Matrix:
    A = mat(A)
    if A._ints is None or not c.is_constant() or c.nvars != A.nvars:
        return mat([tuple(c * a for a in row) for row in A])
    q = c.constant_value()
    ints = [[a * q.numerator for a in row] for row in A._ints]
    return _reduced(ints, [d * q.denominator for d in A._dens], A.nvars, A.ncols)


def is_skew(A: Matrix) -> bool:
    A = mat(A)
    n, m = dims(A)
    if n != m:
        return False
    if A._ints is not None:
        a, d = A._ints, A._dens
        return all(
            a[i][j] * d[j] == -a[j][i] * d[i] for i in range(n) for j in range(i, n)
        )
    rows = A._rows
    return all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(i, n))


# ---------------------------------------------------------------------------
# Echelon forms over the field
# ---------------------------------------------------------------------------


def rref(A: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, exact over the field.

    Gauss-Jordan on primitive cleared rows (`_rref`), of ints for a constant
    matrix and of polynomials otherwise: each pivot row over its pivot is
    its reduced row.  Clearing scales each row by the lcm of its
    denominators, which leaves the RREF unchanged.
    """
    R, pivots, _ = _rref(mat(A))
    return R, pivots


def _rref(A: Matrix) -> tuple[Matrix, tuple[int, ...], Callable[[], Scalar]]:
    """rref(A), and a function giving the determinant of the leading square
    block of A when the columns of that block are all pivots.

    The cleared rows, of ints or of polynomials, are each divided by their
    content.  At a pivot p in column c only the rows with a nonzero entry f
    there change: row <- (p/g) row - (f/g) pivot_row with g = gcd(p, f), and
    the row is divided by its content h.  Every row stays primitive, so a
    pivot row over its pivot is its reduced row.  Each update scales the
    determinant by (p/g) / h, so the leading determinant is the signed
    product of the diagonal times the contents, divided exactly by the
    scales, over the product of the row scales of the clearing.  The ring
    picks the gcd (`math.gcd` or `poly_gcd`), the row content (a polynomial
    row's stops at its first constant gcd) and the output entries (int rows
    over positive pivots, or `Scalar(a, p)`); the loop is the same.
    """
    nvars = A.nvars
    if not A.nrows or not A.ncols:
        return A, (), lambda: Scalar.one(nvars)
    ints = A._ints is not None
    if ints:
        gcd = content = math.gcd
        one = 1
    else:
        gcd, content, one = poly_gcd, _poly_content, Poly.one(nvars)
    rows, row_scales = _cleared(A)
    contents, scales = [], []
    for i, row in enumerate(rows):
        h = content(*row)
        if h and h != one:
            rows[i] = [a // h for a in row]
            contents.append(h)
    nr, nc = A.nrows, A.ncols
    pivots: list[int] = []
    sign = 1
    r = 0
    for c in range(nc):
        below = [i for i in range(r, nr) if rows[i][c]]
        if not below:
            continue
        pivot = below[0]
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        row_r = rows[r]
        p = row_r[c]
        # the old row r, now at `pivot`, is zero in column c
        for i in [i for i in range(r) if rows[i][c]] + below[1:]:
            row = rows[i]
            g = gcd(p, row[c])
            s, t = p // g, row[c] // g
            row = [s * a - t * b for a, b in zip(row, row_r)]
            h = content(*row)
            if h and h != one:
                row = [a // h for a in row]
                contents.append(h)
            if s != one:
                scales.append(s)
            rows[i] = row
        pivots.append(c)
        r += 1
        if r == nr:
            break
    diagonal = [row[c] for row, c in zip(rows, pivots)]
    if ints:
        out_ints, dens = [], []
        for row, p in zip(rows, diagonal):
            if p < 0:
                row, p = [-a for a in row], -p
            out_ints.append(row)
            dens.append(p)
        # the rows below the last pivot are zero
        out_ints.extend(rows[r:])
        dens.extend([1] * (nr - r))
        R = Matrix(nr, nc, nvars, out_ints, dens)
    else:
        zero, unit = Scalar.zero(nvars), Scalar.one(nvars)
        R = mat([
            [zero if not a else unit if a is p else Scalar(a, p) for a in row]
            for row, p in zip(rows, diagonal)
        ] + [[zero] * nc] * (nr - r))

    def leading_det() -> Scalar:
        num = math.prod(diagonal + contents, start=one)
        for s in scales:
            num //= s
        if sign < 0:
            num = -num
        den = math.prod(row_scales, start=one)
        return Scalar.const(nvars, Fraction(num, den)) if ints else Scalar(num, den)

    return R, tuple(pivots), leading_det


def _poly_content(*row: Poly) -> Poly:
    """The gcd of a polynomial row, zero for a zero row; it stops at the
    first constant gcd, the unit."""
    h = Poly.zero(row[0].nvars)
    for a in row:
        if a:
            h = poly_gcd(h, a)
            if h.is_constant():
                break
    return h


def rank(A: Matrix) -> int:
    """The rank: the pivot count of one forward Bareiss pass on the cleared
    rows (no RREF)."""
    A = mat(A)
    return len(_bareiss(_cleared(A)[0])[0]) if A.nrows and A.ncols else 0


def nullspace(A: Matrix) -> Matrix:
    """A basis of the right kernel, as the rows of a matrix, derived from the
    RREF (one row per free column)."""
    A = mat(A)
    if not A.nrows:
        return A
    R, pivots = rref(A)
    nc = A.ncols
    pivot_set = set(pivots)
    free = [f for f in range(nc) if f not in pivot_set]
    if R._ints is not None:
        L = math.lcm(*R._dens[: len(pivots)])
        scales = [L // d for d in R._dens]
        ints = []
        for f in free:
            v = [0] * nc
            v[f] = L
            for r, pc in enumerate(pivots):
                v[pc] = -R._ints[r][f] * scales[r]
            ints.append(v)
        return _reduced(ints, [L] * len(ints), A.nvars, nc)
    zero = Scalar.zero(A.nvars)
    one = Scalar.one(A.nvars)
    basis = []
    for f in free:
        v = [zero] * nc
        v[f] = one
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][f]
        basis.append(tuple(v))
    return mat(basis)


def solve(A: Matrix, B: Matrix) -> Matrix:
    """X with A X = B, read from the right block of rref([A | B]).

    A singular A raises ZeroDivisionError; a non-square A, or a B whose row
    count differs from A's, raises ValueError.
    """
    return _solve(A, B)[0]


def solve_det(A: Matrix, B: Matrix) -> tuple[Matrix, Scalar]:
    """solve(A, B) and det(A), both read from the one elimination of [A | B]."""
    X, leading_det = _solve(A, B)
    return X, leading_det()


def _solve(A: Matrix, B: Matrix) -> tuple[Matrix, Callable[[], Scalar]]:
    A, B = mat(A), mat(B)
    n, m = dims(A)
    if n != m:
        raise ValueError("solve with a non-square matrix")
    if B.nrows != n:
        raise ValueError(f"shape mismatch: {n}x{n} system with {B.nrows} right-hand rows")
    if n == 0:
        return A, lambda: Scalar.one(0)
    R, pivots, leading_det = _rref(hstack(A, B))
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return columns(R, n, R.ncols), leading_det


def inverse(A: Matrix) -> Matrix:
    """Exact inverse: solve(A, I)."""
    A = mat(A)
    return solve(A, identity(A.nrows, A.nvars))


# ---------------------------------------------------------------------------
# Fraction-free elimination: determinants and span membership
# ---------------------------------------------------------------------------


def _int_rows(A: Sequence[Sequence[Scalar]], nvars: int) -> tuple[list[list[int]], list[int]] | None:
    """Each row of a constant matrix times the lcm of its denominators.

    Returns (int rows, row lcms), or None if some entry is not a constant over
    `nvars` variables: its denominator is not the shared unit, or its
    numerator has a term of nonzero exponent.
    """
    unit = Poly.one(nvars)
    rows: list[list[int]] = []
    lcms: list[int] = []
    for row in A:
        nums, dens = [], []
        for a in row:
            p = a.num
            ip = p.ip
            if a.den is not unit or len(ip) > 1 or (ip and 0 not in ip):
                return None
            nums.append(p.cn if ip else 0)
            dens.append(p.cd)
        m = math.lcm(*dens)
        rows.append([c if d == m else c * (m // d) for c, d in zip(nums, dens)])
        lcms.append(m)
    return rows, lcms


def clear_rows(A: Sequence[Sequence[Scalar]]) -> tuple[list[list[Poly]], list[Poly]]:
    """Scale each row by the lcm of its denominators; returns (poly rows, lcms)."""
    nvars = A[0][0].nvars
    rows: list[list[Poly]] = []
    lcms: list[Poly] = []
    unit = Poly.one(nvars)
    for row in A:
        # a canonical denominator is the shared unit or not constant, and
        # the lcm of the unit and d is d
        m = unit
        for a in row:
            if a.den is not unit:
                m = a.den if m is unit else poly_lcm(m, a.den)
        if m is unit:
            cleared = [a.num for a in row]
        else:
            cleared = [a.num * (m if a.den is unit else poly_divexact(m, a.den))
                       for a in row]
        rows.append(cleared)
        lcms.append(m)
    return rows, lcms


def _cleared(A: Matrix) -> tuple[list[list], list]:
    """Fresh copies of A's cleared rows, with the row scales: the int rows and
    denominators of a constant A, else `clear_rows(A)`, computed once."""
    if A._ints is not None:
        return [list(row) for row in A._ints], A._dens
    if A._clear is None:
        A._clear = clear_rows(A._rows)
    rows, lcms = A._clear
    return [list(row) for row in rows], lcms


def _bareiss(rows: list[list]) -> tuple[tuple[int, ...], int]:
    """Fraction-free forward elimination, in place, on rows of ints or of
    polynomials.

    Returns (pivot columns, sign of the row swaps); the rank over the fraction
    field is the number of pivots.  Each update is (piv*a - f*b) / prev with
    prev the previous pivot, and every division is exact, so no gcd is
    taken.  For a square matrix of full rank the last pivot is sign * det.
    """
    n, m = len(rows), len(rows[0])
    if isinstance(rows[0][0], Poly):
        nvars = rows[0][0].nvars
        zero, prev = Poly.zero(nvars), Poly.one(nvars)
    else:
        zero, prev = 0, 1
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
        for i in range(r + 1, n):
            row_i = rows[i]
            f = row_i[c]
            for j in range(c + 1, m):
                row_i[j] = (piv * row_i[j] - f * row_r[j]) // prev
            row_i[c] = zero
        prev = piv
        pivots.append(c)
        r += 1
        if r == n:
            break
    return tuple(pivots), sign


def det(A: Matrix) -> Scalar:
    """Exact determinant: the signed last Bareiss pivot over the row scales."""
    A = mat(A)
    n, m = dims(A)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Scalar.one(0)
    nvars = A.nvars
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


def in_span(vectors: Matrix | Sequence[Vector], w: Vector) -> bool:
    """Is w a Scalar-linear combination of the given vectors?

    Decided by a fraction-free rank comparison, which stays polynomial even
    over the rational-function field.
    """
    if all(c.is_zero() for c in w):
        return True
    A = mat(vectors)
    if not A.nrows:
        return False
    before = _bareiss(_cleared(A)[0])[0]
    after = _bareiss(_cleared(vstack(A, mat([w])))[0])[0]
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
    A = mat(A)
    width = A.ncols
    (flat,), (D,) = clear_rows([[a for row in A for a in row]])
    return [flat[i:i + width] for i in range(0, len(flat), width)], D


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
    """Evaluate all entries at a rational point (a matrix over zero variables).

    The entries share one `Point`; a pole raises PoleError naming `point`.
    """
    A = mat(A)
    if A._ints is not None:
        return Matrix(A.nrows, A.ncols, 0, A._ints, A._dens)
    pt = as_point(point)
    try:
        return from_fractions([[a.evaluate(pt) for a in row] for row in A._rows], 0)
    except PoleError:
        raise PoleError.at(point) from None


def from_ratios(rows: Sequence[Sequence[tuple[int, int]]], nvars: int) -> Matrix:
    """The constant matrix over nvars variables with entries n / d, given as
    int pairs (n, d) with d > 0 and not necessarily in lowest terms."""
    ints, dens = [], []
    for row in rows:
        L = math.lcm(*[d for _, d in row])
        ints.append([n if d == L else n * (L // d) for n, d in row])
        dens.append(L)
    return _reduced(ints, dens, nvars, len(ints[0]) if ints else 0)


def int_rows(A: Matrix) -> tuple[list[list[int]], list[int]] | None:
    """The int rows and row denominators of a constant matrix, entry (i, j)
    being ints[i][j] / dens[i] with each row reduced (not to be mutated);
    None for a matrix with a non-constant entry."""
    A = mat(A)
    return None if A._ints is None else (A._ints, A._dens)


def from_fractions(rows: Sequence[Sequence], nvars: int) -> Matrix:
    """The constant matrix over nvars variables with these rational entries."""
    return from_ratios(
        [[(v.numerator, v.denominator) for v in map(Fraction, row)] for row in rows], nvars
    )
