"""Exact linear algebra over the Scalar field (rationals or rational functions).

A `Matrix` is immutable and holds one representation, its cleared rows: row
i is a list of ring elements over one row denominator d_i, entry (i, j)
being rows[i][j] / d_i.  Each row is kept reduced: the gcd of d_i and the
row's content is a unit, so d_i is the lcm of the denominators of the row's
entries.  The ring is `int` when every entry is a constant (d_i > 0), and
`Poly` otherwise (d_i primitive with a positive leading coefficient, the
shared unit for a polynomial row; the rational contents stay on the
entries).  Each operation is written once over that ring and takes its gcd,
lcm, zero and one from `is_constant()` (`_ring`); an operation on a
constant and a non-constant matrix reads the constant one's int rows as
constants over the unit.  Two invariants:

- A matrix whose entries are all constants is on int rows, whatever
  operation made it.  Reduced rows make this exact: constant entries force
  a reduced row's denominator to be a unit.
- A reduced row is unique, so `==` compares rows and denominators as they
  are, and each entry, read as a Scalar, is canonical.  The entry Scalars
  are built only when a caller reads an entry, and only once; the Scalars
  passed to `mat` are kept.

Vectors stay tuples of Scalars.

`mat` is the one place where rows of Scalars become a Matrix; every other
function of this module takes and returns Matrix values, and a Matrix is
not a tuple.

There are two elimination loops, and each runs on the cleared rows of both
rings.  `_bareiss` runs forward only and fraction-free, dividing exactly
and taking no gcd; determinants, span membership and ranks are read from
it.  `rref` is Gauss-Jordan on primitive rows: each pivot step changes
only the rows with a nonzero entry in its column, and divides each of them
by its content.  Kernels and linear solves are read from it (`solve(A, B)`
is the right block of rref([A | B])).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

from .rational import PoleError, Poly, Scalar, _const, poly_divexact, poly_gcd, poly_lcm

Vector = tuple[Scalar, ...]


class Matrix:
    """An immutable matrix over the Scalar field; build one with `mat`.

    It has a length (its row count), row indexing (a row is a tuple of
    Scalars), row slicing (a Matrix) and iteration over its rows.  It is not
    a tuple: it equals only a Matrix with the same entries, and it is not
    hashable; `tuple(A)` gives its rows as tuples of Scalars.  A matrix
    without rows has no columns either and is over zero variables.
    """

    __slots__ = ("nrows", "ncols", "nvars", "_nums", "_dens", "_constant", "_entries")

    def __init__(self, nrows: int, ncols: int, nvars: int, nums: list, dens: list,
                 entries: tuple[Vector, ...] | None = None):
        self.nrows = nrows
        self.ncols = ncols if nrows else 0
        self.nvars = nvars if nrows else 0
        # the cleared rows (never mutated) over their denominators
        self._nums: list[list] = nums
        self._dens: list = dens
        self._constant = not dens or type(dens[0]) is int
        # the entry Scalars, built on first read
        self._entries = entries

    def is_constant(self) -> bool:
        return self._constant

    def _scalars(self) -> tuple[Vector, ...]:
        rows = self._entries
        if rows is None:
            nvars = self.nvars
            zero = Scalar.zero(nvars)
            if self._constant:
                one = Scalar.one(nvars)
                rows = tuple(
                    tuple(
                        zero if not a else one if a == d
                        else Scalar.const(nvars, Fraction(a, d))
                        for a in row
                    )
                    for row, d in zip(self._nums, self._dens)
                )
            else:
                unit = Poly.one(nvars)
                rows = tuple(
                    tuple(zero if not a else Scalar(a, d, _canonical=d is unit) for a in row)
                    for row, d in zip(self._nums, self._dens)
                )
            self._entries = rows
        return rows

    def __len__(self) -> int:
        return self.nrows

    def __iter__(self):
        return iter(self._scalars())

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return self._scalars()[index]
        entries = self._entries[index] if self._entries is not None else None
        nums, dens = self._nums[index], self._dens[index]
        if self._constant:
            return Matrix(len(nums), self.ncols, self.nvars, nums, dens, entries)
        # the rows of a non-constant matrix may have only constant entries
        return _reduced(nums, dens, self.nvars, self.ncols, False, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            (self.nrows, self.ncols, self.nvars) == (other.nrows, other.ncols, other.nvars)
            and self._dens == other._dens
            and self._nums == other._nums
        )

    def __repr__(self) -> str:
        return f"Matrix({self._scalars()!r})"


_INT_RING = (math.gcd, math.lcm, 0, 1)


def _ring(constant: bool, nvars: int) -> tuple[Callable, Callable, object, object]:
    """(gcd, lcm, zero, one) of the cleared rows: ints for a constant matrix,
    polynomials over nvars variables otherwise.  gcd and lcm take any
    number of arguments."""
    if constant:
        return _INT_RING
    return _poly_gcd, _poly_lcm, Poly.zero(nvars), Poly.one(nvars)


def _poly_gcd(*row: Poly) -> Poly:
    """A gcd of the polynomials up to a constant factor (zero for zeros); the
    fold stops at the first constant gcd with the unit."""
    h = Poly.zero(row[0].nvars)
    for a in row:
        if a:
            h = poly_gcd(h, a) if h else a
            if h.is_constant():
                return Poly.one(h.nvars)
    return h


def _poly_lcm(*dens: Poly) -> Poly:
    """The lcm of normalised denominators: each is the unit or primitive
    with a positive leading coefficient, and so is the lcm."""
    L = dens[0]
    for d in dens[1:]:
        if L.is_constant():
            L = d
        elif not d.is_constant() and d != L:
            L = poly_lcm(L, d)
    return L


def _rescaled(nums: list[list], dens: list, L) -> list[list]:
    """The rows over the common denominator L, a multiple of each of dens."""
    return [row if d == L else [a * (L // d) for a in row] for row, d in zip(nums, dens)]


def _clear(fractions: list[list[tuple]], constant: bool, nvars: int) -> tuple[list[list], list]:
    """The rows of (numerator, denominator) pairs of ring elements, each
    over the lcm of its denominators.  A row of entries in lowest terms with
    normalised denominators comes out reduced."""
    _, lcm, _, one = _ring(constant, nvars)
    nums, dens = [], []
    for row in fractions:
        L = lcm(one, *[e for _, e in row])
        nums.append([n if e == L else n * (L // e) for n, e in row])
        dens.append(L)
    return nums, dens


def mat(rows: Matrix | Sequence[Sequence[Scalar]]) -> Matrix:
    """The matrix with these Scalar rows; a Matrix is returned unchanged.

    The rows are cleared here, once: over the ints when every entry is a
    constant, and over the polynomials otherwise.  The Scalars are kept as
    the matrix's entries.
    """
    if isinstance(rows, Matrix):
        return rows
    rows = tuple(tuple(row) for row in rows)
    if not rows:
        return Matrix(0, 0, 0, [], [])
    if len(set(map(len, rows))) > 1:
        raise ValueError("rows of different lengths")
    nvars = rows[0][0].nvars if rows[0] else 0
    fractions = _constant_fractions(rows, Poly.one(nvars))
    if fractions is not None:
        nums, dens = _clear(fractions, True, nvars)
    else:
        nums, dens = _clear([[(a.num, a.den) for a in row] for row in rows], False, nvars)
    return Matrix(len(rows), len(rows[0]), nvars, nums, dens, rows)


def _constant_fractions(rows: tuple[Vector, ...], unit: Poly) -> list[list[tuple[int, int]]] | None:
    """Each entry as (numerator, denominator) in lowest terms, or None once
    an entry is not a constant: its denominator is not the shared unit, or
    its numerator has a term of nonzero exponent."""
    out = []
    for row in rows:
        pairs = []
        for a in row:
            ip = a.num.ip
            if a.den is not unit or len(ip) > 1 or (ip and 0 not in ip):
                return None
            pairs.append((a.num.cn, a.num.cd) if ip else (0, 1))
        out.append(pairs)
    return out


def _reduced(nums: list[list], dens: list, nvars: int, ncols: int, reduce: bool = True,
             entries: tuple[Vector, ...] | None = None) -> Matrix:
    """The matrix with entries nums[i][j] / dens[i], in either ring, with its
    entry Scalars kept if they are known.

    Each denominator is normalised: made positive, or, over the
    polynomials, primitive with a positive leading coefficient and the unit
    when constant, its content moved onto the row.  With `reduce`, each row
    is first divided by the gcd of its denominator and its content.  A
    polynomial result whose entries are all constants goes on int rows.
    """
    if not dens or type(dens[0]) is int:
        if not reduce and min(dens, default=1) > 0:
            return Matrix(len(nums), ncols, nvars, nums, dens, entries)
        out_nums, out_dens = [], []
        for row, d in zip(nums, dens):
            g = math.gcd(d, *row) if reduce else 1
            if d < 0:
                g = -g
            if g != 1:
                row = [a // g for a in row]
                d //= g
            out_nums.append(row)
            out_dens.append(d)
        return Matrix(len(nums), ncols, nvars, out_nums, out_dens, entries)
    unit = Poly.one(nvars)
    out_nums, out_dens = [], []
    for row, d in zip(nums, dens):
        if d is not unit:
            if reduce and not d.is_constant():
                g = _poly_gcd(d, *row)
                if not g.is_constant():
                    row = [poly_divexact(a, g) for a in row]
                    d = poly_divexact(d, g)
            if d.is_constant() or d.cn != 1 or d.cd != 1:
                c = d if d.is_constant() else _const(nvars, d.cn, d.cd)
                row = [poly_divexact(a, c) for a in row]
                d = unit if d.is_constant() else poly_divexact(d, c)
        out_nums.append(row)
        out_dens.append(d)
    if all(d is unit for d in out_dens) and all(
        a.is_constant() for row in out_nums for a in row
    ):
        out_nums, out_dens = _clear(
            [[(a.cn, a.cd) if a else (0, 1) for a in row] for row in out_nums], True, nvars)
    return Matrix(len(nums), ncols, nvars, out_nums, out_dens, entries)


def _operands(*blocks: Matrix) -> tuple[tuple, int, list[tuple[list[list], list]]]:
    """The ring (`_ring`) of an operation on these matrices, their variable
    count, and each one's cleared rows over that ring: ints when all are
    constant, else polynomials, a constant block's int rows read as
    constants over the unit.  The first block has rows, and every block
    with rows has its variable count."""
    nvars = blocks[0].nvars
    constant = True
    for b in blocks:
        if b.nrows and b.nvars != nvars:
            raise ValueError("variable-count mismatch")
        constant = constant and b._constant
    if constant:
        return _INT_RING, nvars, [(b._nums, b._dens) for b in blocks]
    return _ring(False, nvars), nvars, [_poly_rows(b) for b in blocks]


def _poly_rows(A: Matrix) -> tuple[list[list[Poly]], list[Poly]]:
    """A's cleared rows over the polynomials: a constant matrix's int rows
    are read as constants over the unit."""
    if not A._constant:
        return A._nums, A._dens
    nvars = A.nvars
    nums = [[_const(nvars, a, d) for a in row] for row, d in zip(A._nums, A._dens)]
    return nums, [Poly.one(nvars)] * A.nrows


def cleared_rows(A: Matrix) -> tuple[list[list], list]:
    """The cleared rows of A and their denominators, entry (i, j) being
    rows[i][j] / dens[i] with each row reduced: ints when A.is_constant(),
    polynomials otherwise (not to be mutated)."""
    return A._nums, A._dens


def zeros(nrows: int, ncols: int, nvars: int) -> Matrix:
    return Matrix(nrows, ncols, nvars, [[0] * ncols for _ in range(nrows)], [1] * nrows)


def identity(n: int, nvars: int) -> Matrix:
    ints = [[0] * n for _ in range(n)]
    for i in range(n):
        ints[i][i] = 1
    return Matrix(n, n, nvars, ints, [1] * n)


def transpose(A: Matrix) -> Matrix:
    """A's columns, each over the lcm L of A's row denominators."""
    _, lcm, _, one = _ring(A._constant, A.nvars)
    L = lcm(one, *A._dens)
    cols = [list(col) for col in zip(*_rescaled(A._nums, A._dens, L))]
    entries = tuple(zip(*A._entries)) if A._entries is not None else None
    return _reduced(cols, [L] * len(cols), A.nvars, A.nrows, True, entries)


def hstack(*blocks: Matrix) -> Matrix:
    """The blocks side by side; all have the same number of rows.  Row i is
    over the lcm of the blocks' denominators of row i, which keeps it
    reduced."""
    n = blocks[0].nrows
    if any(b.nrows != n for b in blocks):
        raise ValueError("hstack of blocks with different row counts")
    if not n:
        return mat(())
    (_, lcm, _, one), nvars, parts = _operands(*blocks)
    nums, dens = [], []
    for i in range(n):
        L = lcm(one, *[d[i] for _, d in parts])
        row = []
        for b, d in parts:
            row.extend(b[i] if d[i] == L else [a * (L // d[i]) for a in b[i]])
        nums.append(row)
        dens.append(L)
    return Matrix(n, sum(b.ncols for b in blocks), nvars, nums, dens)


def vstack(*blocks: Matrix) -> Matrix:
    """The blocks one above another; all with rows have the same number of
    columns, and a block without rows is skipped."""
    blocks = [b for b in blocks if b.nrows]
    if len(blocks) < 2:
        return blocks[0] if blocks else mat(())
    ncols = blocks[0].ncols
    if any(b.ncols != ncols for b in blocks):
        raise ValueError("vstack of blocks with different column counts")
    _, nvars, parts = _operands(*blocks)
    nums = [row for b, _ in parts for row in b]
    return Matrix(len(nums), ncols, nvars, nums, [d for _, ds in parts for d in ds])


def columns(A: Matrix, start: int, stop: int) -> Matrix:
    """The matrix of columns start..stop-1 of A."""
    ncols = len(range(A.ncols)[start:stop])
    entries = tuple(row[start:stop] for row in A._entries) if A._entries is not None else None
    return _reduced([row[start:stop] for row in A._nums], A._dens, A.nvars, ncols, True, entries)


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    if (A.nrows, A.ncols) != (B.nrows, B.ncols):
        raise ValueError(f"shape mismatch {(A.nrows, A.ncols)} + {(B.nrows, B.ncols)}")
    (_, lcm, _, _), nvars, ((an, ad), (bn, bd)) = _operands(A, B)
    nums, dens = [], []
    for a, d, b, e in zip(an, ad, bn, bd):
        if d == e:
            nums.append([x + y for x, y in zip(a, b)])
            dens.append(d)
        else:
            L = lcm(d, e)
            s, t = L // d, L // e
            nums.append([x * s + y * t for x, y in zip(a, b)])
            dens.append(L)
    return _reduced(nums, dens, nvars, A.ncols)


def mat_neg(A: Matrix) -> Matrix:
    return Matrix(A.nrows, A.ncols, A.nvars, [[-a for a in row] for row in A._nums], A._dens)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """A @ B.  A matrix without rows gives the empty product.  The rows of B
    are rescaled to the lcm L of their denominators, so row i of the
    product is a row of dot products over d_i * L."""
    n, k, k2, m = A.nrows, A.ncols, B.nrows, B.ncols
    if not n:
        return A
    if k != k2:
        raise ValueError(f"shape mismatch {n}x{k} @ {k2}x{m}")
    (_, lcm, zero, one), nvars, ((an, ad), (bn, bd)) = _operands(A, B)
    L = lcm(one, *bd)
    cols = list(zip(*_rescaled(bn, bd, L)))
    nums = [[sum(map(operator.mul, row, col), zero) for col in cols] for row in an]
    return _reduced(nums, [d * L for d in ad], nvars, m)


def mat_vec(A: Matrix, v: Sequence[Scalar]) -> Vector:
    if not A.nrows:
        return ()
    return tuple(row[0] for row in mat_mul(A, transpose(mat([v]))))


def mat_scale(A: Matrix, c: Scalar) -> Matrix:
    """c A: the rows times c's cleared numerator s, over their denominators
    times its denominator t."""
    if not A.nrows:
        return A
    _, nvars, ((nums, dens), ([[s]], [t])) = _operands(A, mat([[c]]))
    return _reduced([[a * s for a in row] for row in nums], [d * t for d in dens], nvars, A.ncols)


def is_skew(A: Matrix) -> bool:
    """a_ij / d_i == -a_ji / d_j, compared as a_ij * d_j == -a_ji * d_i."""
    n = A.nrows
    if n != A.ncols:
        return False
    a, d = A._nums, A._dens
    return all(a[i][j] * d[j] == -a[j][i] * d[i] for i in range(n) for j in range(i, n))


# ---------------------------------------------------------------------------
# Echelon forms over the field
# ---------------------------------------------------------------------------


def rref(A: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, exact over the field.

    Gauss-Jordan on the cleared rows, of ints for a constant matrix and of
    polynomials otherwise; clearing scales each row by the lcm of its
    denominators, which leaves the RREF unchanged.  Each row is divided by
    its content.  At a pivot p in column c only the rows with a nonzero
    entry f there change: row <- (p/g) row - (f/g) pivot_row with
    g = gcd(p, f), and the row is divided by its content.  Every row stays
    primitive, so a pivot row over its pivot is its reduced row.  The ring
    (`_ring`) gives the gcd, which for a polynomial row stops at its first
    constant gcd; the loop is the same.
    """
    nvars = A.nvars
    if not A.nrows or not A.ncols:
        return A, ()
    gcd, _, _, one = _ring(A._constant, nvars)
    rows = [list(row) for row in A._nums]
    for i, row in enumerate(rows):
        h = gcd(*row)
        if h and h != one:
            rows[i] = [a // h for a in row]
    nr, nc = A.nrows, A.ncols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        below = [i for i in range(r, nr) if rows[i][c]]
        if not below:
            continue
        pivot = below[0]
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        row_r = rows[r]
        p = row_r[c]
        # the old row r, now at `pivot`, is zero in column c
        for i in [i for i in range(r) if rows[i][c]] + below[1:]:
            row = rows[i]
            g = gcd(p, row[c])
            s, t = p // g, row[c] // g
            row = [s * a - t * b for a, b in zip(row, row_r)]
            h = gcd(*row)
            if h and h != one:
                row = [a // h for a in row]
            rows[i] = row
        pivots.append(c)
        r += 1
        if r == nr:
            break
    diagonal = [row[c] for row, c in zip(rows, pivots)]
    # each row is primitive, so over its pivot (or over one, for the zero
    # rows below the last pivot) it is reduced; `_reduced` only normalises
    # the pivots
    R = _reduced(rows, diagonal + [one] * (nr - r), nvars, nc, False)
    return R, tuple(pivots)


def rank(A: Matrix) -> int:
    """The rank: the pivot count of one forward Bareiss pass on the cleared
    rows (no RREF)."""
    return len(_bareiss(A)[1]) if A.nrows and A.ncols else 0


def nullspace(A: Matrix) -> Matrix:
    """A basis of the right kernel, as the rows of a matrix, derived from the
    RREF (one row per free column): with L the lcm of the pivot rows'
    denominators, the row of free column f is L at f and minus L times
    column f of the RREF at the pivots."""
    if not A.nrows:
        return A
    R, pivots = rref(A)
    nc = A.ncols
    pivot_set = set(pivots)
    free = [f for f in range(nc) if f not in pivot_set]
    _, lcm, zero, one = _ring(R._constant, A.nvars)
    dens = R._dens[: len(pivots)]
    L = lcm(one, *dens)
    scales = [L // d for d in dens]
    nums = []
    for f in free:
        v = [zero] * nc
        v[f] = L
        for r, pc in enumerate(pivots):
            v[pc] = -R._nums[r][f] * scales[r]
        nums.append(v)
    return _reduced(nums, [L] * len(nums), A.nvars, nc)


def solve(A: Matrix, B: Matrix) -> Matrix:
    """X with A X = B, read from the right block of rref([A | B]).

    A singular A raises ZeroDivisionError; a non-square A, or a B whose row
    count differs from A's, raises ValueError.
    """
    n = A.nrows
    if n != A.ncols:
        raise ValueError("solve with a non-square matrix")
    if B.nrows != n:
        raise ValueError(f"shape mismatch: {n}x{n} system with {B.nrows} right-hand rows")
    if n == 0:
        return A
    R, pivots = rref(hstack(A, B))
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return columns(R, n, R.ncols)


def inverse(A: Matrix) -> Matrix:
    """Exact inverse: solve(A, I)."""
    return solve(A, identity(A.nrows, A.nvars))


# ---------------------------------------------------------------------------
# Fraction-free elimination: determinants
# ---------------------------------------------------------------------------


def _bareiss(A: Matrix) -> tuple[list[list], tuple[int, ...], int]:
    """Fraction-free forward elimination on a copy of A's cleared rows.

    Returns (the eliminated rows, pivot columns, sign of the row swaps); the
    rank over the fraction field is the number of pivots.  Each update is
    (piv*a - f*b) / prev with prev the previous pivot, and every division is
    exact, so no gcd is taken.  For a square matrix of full rank the last
    pivot is sign * det.
    """
    rows = [list(row) for row in A._nums]
    n, m = A.nrows, A.ncols
    _, _, zero, prev = _ring(A._constant, A.nvars)
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
    return rows, tuple(pivots), sign


def det(A: Matrix) -> Scalar:
    """Exact determinant: the signed last Bareiss pivot over the row scales."""
    n = A.nrows
    if n != A.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Scalar.one(0)
    nvars = A.nvars
    rows, pivots, sign = _bareiss(A)
    if len(pivots) < n:
        return Scalar.zero(nvars)
    last = rows[n - 1][n - 1]
    if A._constant:
        return Scalar.const(nvars, Fraction(sign * last, math.prod(A._dens)))
    result = Scalar(last, math.prod(A._dens, start=Poly.one(nvars)))
    return -result if sign < 0 else result


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------


def clear_matrix(A: Matrix) -> tuple[list[list[Poly]], Poly]:
    """Scale the whole matrix by the lcm D of all denominators.

    Returns (polynomial entries of D*A, D): the cleared rows over the
    polynomials (a constant matrix's read as constants over the unit),
    rescaled to the lcm of their denominators.  Useful for Pfaffian
    computations, where a uniform polynomial matrix avoids fraction-field
    gcd churn: Pf_S(D*A) = D^{|S|/2} Pf_S(A).
    """
    nums, dens = _poly_rows(A)
    D = _poly_lcm(Poly.one(A.nvars), *dens)
    return _rescaled(nums, dens, D), D


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

    The point has one coordinate per variable, as for `Poly.evaluate`,
    whenever the matrix has rows, constant or not.  A row is its
    numerators' values over its denominator's.  A reduced row's
    denominator is the lcm of its entries' denominators, so it vanishes at
    the point exactly when some entry has a pole there, and then
    PoleError names `point`.
    """
    if A.nrows and len(point) != A.nvars:
        raise ValueError("point dimension mismatch")
    if A._constant:
        return Matrix(A.nrows, A.ncols, 0, A._nums, A._dens)
    values = []
    for row, d in zip(A._nums, A._dens):
        dv = d.evaluate(point)
        if not dv:
            raise PoleError.at(point)
        values.append([a.evaluate(point) / dv for a in row])
    return from_fractions(values, 0)


def from_ratios(rows: Sequence[Sequence[tuple[int, int]]], nvars: int) -> Matrix:
    """The constant matrix over nvars variables with entries n / d, given as
    int pairs (n, d) with d > 0 and not necessarily in lowest terms."""
    nums, dens = _clear(rows, True, nvars)
    return _reduced(nums, dens, nvars, len(nums[0]) if nums else 0)


def from_fractions(rows: Sequence[Sequence], nvars: int) -> Matrix:
    """The constant matrix over nvars variables with these rational entries."""
    return from_ratios(
        [[(v.numerator, v.denominator) for v in map(Fraction, row)] for row in rows], nvars
    )
