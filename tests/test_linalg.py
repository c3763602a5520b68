"""Exact linear algebra: echelon forms, Bareiss determinants, Pfaffians."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from diracdeform import linalg
from diracdeform.linalg import (
    clear_matrix,
    det,
    evaluate_matrix,
    from_fractions,
    identity,
    in_span,
    inverse,
    mat,
    mat_mul,
    nullspace,
    pfaffian_poly,
    rank,
    rref,
    solve,
    transpose,
)
from diracdeform.rational import Point, PoleError, Poly, Scalar, random_poly, scalar_from_str


def rand_matrix(rng, n, m, nvars=0, deg=0):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            if nvars and deg:
                row.append(Scalar.from_poly(random_poly(rng, nvars, deg, 2, 4)))
            else:
                row.append(Scalar.const(nvars, Fraction(rng.randint(-6, 6))))
        rows.append(row)
    return mat(rows)


def det_permanent_oracle(A):
    """Determinant by signed permutation expansion (independent oracle)."""
    n = len(A)
    nvars = A[0][0].nvars
    total = Scalar.zero(nvars)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Scalar.one(nvars)
        for i in range(n):
            term = term * A[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def test_det_matches_permutation_oracle(rng):
    for n in (2, 3, 4):
        for _ in range(6):
            A = rand_matrix(rng, n, n)
            assert det(A) == det_permanent_oracle(A)
    for _ in range(4):
        A = rand_matrix(rng, 3, 3, nvars=2, deg=1)
        assert det(A) == det_permanent_oracle(A)


def test_inverse_round_trip(rng):
    for n in (2, 3, 4):
        for _ in range(5):
            A = rand_matrix(rng, n, n)
            if det(A).is_zero():
                continue
            assert mat_mul(A, inverse(A)) == identity(n, 0)
    # rational-function entries
    for _ in range(3):
        A = rand_matrix(rng, 3, 3, nvars=2, deg=1)
        if det(A).is_zero():
            continue
        assert mat_mul(inverse(A), A) == identity(3, 2)
    with pytest.raises(ZeroDivisionError):
        inverse(from_fractions([[1, 2], [2, 4]], 0))


def rand_rational_function(rng, nvars):
    """p/q with q non-constant, so the matrix has real denominators."""
    q = Poly.zero(nvars)
    while q.is_constant():
        q = random_poly(rng, nvars, 1, 2, 4)
    return Scalar(random_poly(rng, nvars, 1, 2, 4), q)


def test_det_and_inverse_with_rational_function_entries(rng):
    for n, nvars in ((2, 2), (3, 1)):
        for _ in range(3):
            A = mat([[rand_rational_function(rng, nvars) for _ in range(n)]
                     for _ in range(n)])
            d = det(A)
            assert d == det_permanent_oracle(A)
            if d.is_zero():
                continue
            Ainv = inverse(A)
            assert mat_mul(A, Ainv) == identity(n, nvars)
            assert mat_mul(Ainv, A) == identity(n, nvars)


def test_singular_over_rational_functions(rng):
    for _ in range(3):
        r0 = [rand_rational_function(rng, 2) for _ in range(3)]
        r1 = [rand_rational_function(rng, 2) for _ in range(3)]
        p = Scalar.from_poly(random_poly(rng, 2, 1, 2, 4))
        q = Scalar.from_poly(random_poly(rng, 2, 1, 2, 4))
        r2 = tuple(p * a + q * b for a, b in zip(r0, r1))
        A = mat([r0, r1, r2])
        assert det(A).is_zero()
        with pytest.raises(ZeroDivisionError):
            inverse(A)
        assert in_span([tuple(r0), tuple(r1)], r2)
        # a random row is in the span iff the matrix it completes is singular
        r3 = tuple(rand_rational_function(rng, 2) for _ in range(3))
        B = mat([r0, r1, r3])
        assert in_span([tuple(r0), tuple(r1)], r3) == det(B).is_zero()


def test_solve_det_reads_det_from_the_solve(rng):
    """solve_det gives solve and det of one elimination, over Q and Q(x)."""
    cases = [rand_matrix(rng, n, n) for n in (1, 2, 3, 4) for _ in range(4)]
    cases += [rand_matrix(rng, 3, 3, nvars=2, deg=1) for _ in range(3)]
    cases += [mat([[rand_rational_function(rng, 2) for _ in range(2)]
                   for _ in range(2)]) for _ in range(3)]
    cases.append(from_fractions([[1, 2], [2, 4]], 0))
    for A in cases:
        n, nvars = len(A), A.nvars
        B = rand_matrix(rng, n, 2, nvars=nvars)
        d = det(A)
        if d.is_zero():
            with pytest.raises(ZeroDivisionError):
                linalg.solve_det(A, B)
            continue
        X, d2 = linalg.solve_det(A, B)
        assert d2 == d and X == solve(A, B)
        assert mat_mul(A, X) == B


def test_empty_matrix():
    assert det(()) == Scalar.one(0)
    assert inverse(()) == ()


def test_solve_shape_errors():
    A = from_fractions([[1, 2], [3, 4]], 0)
    with pytest.raises(ValueError):
        solve(from_fractions([[1, 2, 3], [4, 5, 6]], 0), A)
    with pytest.raises(ValueError):
        solve(A, from_fractions([[1, 2]], 0))
    with pytest.raises(ValueError):
        solve(A, from_fractions([[1], [2], [3]], 0))
    assert solve((), ()) == ()


def test_rref_and_nullspace(rng):
    for _ in range(10):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        A = rand_matrix(rng, n, m)
        R, pivots = rref(A)
        assert rank(A) == len(pivots)
        for v in nullspace(A):
            image = [linalg.dot(row, v) for row in A]
            assert all(x.is_zero() for x in image)
        assert rank(A) + len(nullspace(A)) == m


def test_pfaffian_square_is_determinant(rng):
    for n in (2, 4, 6):
        for _ in range(4):
            pairs = {}
            for i in range(n):
                for j in range(i + 1, n):
                    pairs[(i, j)] = Fraction(rng.randint(-5, 5))
            from diracdeform.dirac import SkewBilinear

            S = SkewBilinear.from_pairs(n, 0, pairs)
            V = S.values()
            rows, D = clear_matrix(V)
            pf = Scalar(pfaffian_poly(rows), D.pow(n // 2))
            assert pf * pf == det(V)


def test_pfaffian_worked():
    from diracdeform.dirac import SkewBilinear

    rows, _ = clear_matrix(
        SkewBilinear.from_pairs(4, 0, {(0, 1): 1, (2, 3): 1}).values()
    )
    assert pfaffian_poly(rows) == Poly.one(0)
    assert pfaffian_poly(rows, (0, 1)) == Poly.one(0)
    assert pfaffian_poly(rows, (0, 2)).is_zero()
    assert pfaffian_poly(rows, (0, 1, 2)).is_zero()  # odd size
    assert pfaffian_poly(rows, ()) == Poly.one(0)


def test_evaluate_matrix():
    x = Scalar.variable(1, 1)
    A = mat([[x, Scalar.one(1)], [Scalar.zero(1), x * x]])
    B = evaluate_matrix(A, [Fraction(3)])
    assert B[0][0].constant_value() == 3
    assert B[1][1].constant_value() == 9
    # the entries share one Point: values as at a fresh point, and a pole
    # names the caller's point
    entries = ["(x1 + x2^2)/(x2 + 2)", "x1*x2 - 1/3", "(1)/(x1 - 1)", "1"]
    C = mat([[scalar_from_str(e, 2) for e in entries[:2]],
             [scalar_from_str(e, 2) for e in entries[2:]]])
    point = [Fraction(1, 2), Fraction(-3)]
    got = evaluate_matrix(C, point)
    assert [[e.constant_value() for e in row] for row in got] == [
        [c.evaluate(Point(point)) for c in row] for row in C
    ]
    with pytest.raises(PoleError) as pole:
        evaluate_matrix(C, [1, 0])
    assert str(pole.value) == "denominator vanishes at point (1, 0)"


# ---------------------------------------------------------------------------
# Constant matrices take the int route; sympy is the independent oracle.
# ---------------------------------------------------------------------------

SYMS = sympy.symbols("x1 x2")


def _to_sympy(s: Scalar):
    def poly(p):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**k for x, k in zip(SYMS, e)))
            for e, c in p.items()
        ))

    return poly(s.num) / poly(s.den)


def _sympy_matrix(A):
    return sympy.Matrix([[_to_sympy(a) for a in row] for row in A])


def _same(A, S) -> bool:
    """Do the Scalar matrix A and the sympy matrix S have equal entries?"""
    return (len(A), len(A[0]) if A else 0) == S.shape and all(
        sympy.cancel(_to_sympy(a) - S[i, j]) == 0
        for i, row in enumerate(A) for j, a in enumerate(row)
    )


@st.composite
def _fraction_rows(draw, max_n=5, max_m=5):
    """A small rational matrix, often with a row that depends on two others."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    if n >= 3 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
    return rows


def _square(rows):
    k = min(len(rows), len(rows[0]))
    return [row[:k] for row in rows[:k]]


def _check_against_sympy(A):
    """Every int-route operation on A agrees with sympy on the same matrix."""
    S = _sympy_matrix(A)
    R, pivots = rref(A)
    SR, spivots = S.rref(simplify=True)
    assert pivots == spivots and _same(R, SR)
    assert rank(A) == len(spivots)
    kernel = nullspace(A)
    skernel = S.nullspace(simplify=True)
    assert len(kernel) == len(skernel)
    for v, sv in zip(kernel, skernel):
        assert _same(mat([v]), sv.T)
    assert _same(mat_mul(A, transpose(A)), S * S.T)
    assert _same(mat([linalg.mat_vec(A, A[0])]), (S * S[0, :].T).T)
    if len(A) >= 2:
        assert in_span(A[:-1], A[-1]) == (S[:-1, :].rank(simplify=True) == S.rank(simplify=True))
    Q = mat(_square(A))
    SQ = _sympy_matrix(Q)
    B = A[: len(Q)]
    d = det(Q)
    assert sympy.cancel(_to_sympy(d) - SQ.det()) == 0
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            inverse(Q)
        with pytest.raises(ZeroDivisionError):
            solve(Q, B)
    else:
        assert _same(inverse(Q), SQ.inv())
        assert _same(solve(Q, B), SQ.inv() * _sympy_matrix(B))


@given(_fraction_rows())
@settings(max_examples=120, deadline=None)
def test_int_route_matches_sympy_over_q(rows):
    A = from_fractions(rows, 0)
    assert linalg._int_rows(A, 0) is not None
    _check_against_sympy(A)


def _lift(value, nvars):
    """A result over Q carried to nvars variables, entry by entry."""
    if isinstance(value, Scalar):
        return Scalar.const(nvars, value.constant_value())
    return tuple(_lift(v, nvars) for v in value)


def _entries(value):
    if isinstance(value, Scalar):
        yield value
    else:
        for v in value:
            yield from _entries(v)


@given(_fraction_rows(), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_constant_qx_matrices_match_q(rows, nvars):
    Aq = from_fractions(rows, 0)
    Ax = from_fractions(rows, nvars)
    Qq, Qx = mat(_square(Aq)), mat(_square(Ax))
    assert linalg._int_rows(Ax, nvars) is not None

    def results(A, Q):
        out = [rref(A)[0], tuple(nullspace(A)), mat_mul(A, transpose(A)),
               linalg.mat_vec(A, A[0]), (det(Q),)]
        if not det(Q).is_zero():
            out.append(inverse(Q))
        return out

    over_q, over_x = results(Aq, Qq), results(Ax, Qx)
    assert over_x == [_lift(r, nvars) for r in over_q]
    assert rref(Ax)[1] == rref(Aq)[1]
    for s in _entries(over_x):
        assert s.nvars == nvars and s.is_polynomial()
    if len(rows) >= 2:
        assert in_span(Ax[:-1], Ax[-1]) == in_span(Aq[:-1], Aq[-1])


@given(_fraction_rows(max_n=4, max_m=4), st.integers(1, 2), st.data())
@settings(max_examples=30, deadline=None)
def test_one_nonconstant_entry_takes_the_field_route(rows, nvars, data):
    """A single polynomial or rational-function entry leaves the int route."""
    A = [list(row) for row in from_fractions(rows, nvars)]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    c = Poly.const(nvars, data.draw(st.integers(-3, 3)))
    x = Poly.variable(nvars, nvars) + c
    A[i][j] = data.draw(st.sampled_from([
        Scalar.from_poly(x), Scalar(Poly.one(nvars), x),
    ]))
    A = mat(A)
    assert linalg._int_rows(A, nvars) is None
    _check_against_sympy(A)


@given(_fraction_rows(max_n=6, max_m=6), st.integers(0, 2), st.booleans())
@settings(max_examples=150, deadline=None)
def test_forward_pivot_rank_matches_sympy(rows, nvars, skew):
    """The rank of a constant matrix, skew or not, from forward pivots alone."""
    if skew:
        # the drawn entries, read in turn, fill the strict upper triangle
        flat = [v for row in rows for v in row]
        n = len(rows)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for t, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            rows[i][j] = flat[t % len(flat)]
            rows[j][i] = -rows[i][j]
    A = from_fractions(rows, nvars)

    def no_rref(*_):
        raise AssertionError("a constant rank reads no RREF")

    real_rref = linalg.rref
    linalg.rref = no_rref
    try:
        got = rank(A)
    finally:
        linalg.rref = real_rref
    assert got == sympy.Matrix(rows).rank()


# ---------------------------------------------------------------------------
# The int rows of a constant Matrix against an entrywise Scalar reference.
# ---------------------------------------------------------------------------


def _scalar_rows(rows, nvars):
    """The reference: a list of lists of Scalars, built entry by entry."""
    return [[Scalar.const(nvars, v) for v in row] for row in rows]


def _ref_eq(E, F) -> bool:
    return len(E) == len(F) and all(
        len(e) == len(f) and all(x == y for x, y in zip(e, f)) for e, f in zip(E, F)
    )


def _ref_is_skew(E) -> bool:
    n = len(E)
    return all(len(row) == n for row in E) and all(
        E[i][j] == -E[j][i] for i in range(n) for j in range(n)
    )


def _as_tuples(E):
    return tuple(tuple(row) for row in E)


@st.composite
def _constant_pair(draw):
    """Two constant matrices of one shape over one ring, often related: equal
    values built another way, a rescaled copy (same ints, other denominators),
    the negated transpose (skew when A is) or an independent draw."""
    rows = draw(_fraction_rows(max_n=4, max_m=4))
    n, m = len(rows), len(rows[0])
    nvars = draw(st.integers(0, 2))
    if n == m and draw(st.booleans()):
        # symmetric or skew: the upper triangle mirrored with a sign
        s = draw(st.sampled_from([1, -1]))
        for i in range(n):
            for j in range(i, n):
                rows[j][i] = s * rows[i][j] if i != j else (rows[i][i] if s > 0 else 0)
    how = draw(st.sampled_from(["same", "scaled", "neg-transpose", "other"]))
    if how == "same":
        other = [list(r) for r in rows]
    elif how == "scaled":
        c = draw(st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(-1)]))
        other = [[c * v for v in r] for r in rows]
    elif how == "neg-transpose" and n == m:
        other = [[-rows[j][i] for j in range(n)] for i in range(n)]
    else:
        other = draw(st.lists(
            st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
                     min_size=m, max_size=m), min_size=n, max_size=n))
    return rows, other, nvars


@given(_constant_pair(), st.data())
@settings(max_examples=300, deadline=None)
def test_constant_matrix_ops_match_entrywise_scalars(pair, data):
    """Every int-side operation of a constant Matrix equals the same operation
    done entry by entry on Scalars: lazy entry reads, ==, is_skew, transpose,
    row and column slicing, stacking, mat_add, mat_neg and mat_mul."""
    rows, other, nvars = pair
    A = from_fractions(rows, nvars)
    B = mat(_scalar_rows(other, nvars))  # the other constructor, from Scalars
    EA, EB = _scalar_rows(rows, nvars), _scalar_rows(other, nvars)
    assert A.is_constant() and B.is_constant()
    n, m = len(EA), len(EA[0])
    # lazy entry reads, by row index, by iteration and through a row slice
    assert [A[i][j] for i in range(n) for j in range(m)] == [x for r in EA for x in r]
    assert _as_tuples(EA) == tuple(A) and A == _as_tuples(EA)
    # == against the reference, both ways round, and hash consistent with it
    assert (A == B) == _ref_eq(EA, EB) == (B == A)
    assert (A != B) != _ref_eq(EA, EB)
    if A == B:
        assert hash(A) == hash(B) == hash(_as_tuples(EB))
    assert linalg.is_skew(A) == _ref_is_skew(EA)
    assert linalg.is_skew(B) == _ref_is_skew(EB)
    T = linalg.transpose(A)
    assert T == _as_tuples(list(zip(*EA)))
    assert linalg.transpose(T) == A
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(a, n))
    assert A[a:b] == _as_tuples(EA[a:b])
    c = data.draw(st.integers(0, m))
    d = data.draw(st.integers(c, m))
    if n:
        cols = linalg.columns(A, c, d)
        assert cols == _as_tuples([r[c:d] for r in EA])
        assert linalg.hstack(linalg.columns(A, 0, c), linalg.columns(A, c, m)) == A
    assert linalg.hstack(A, B) == _as_tuples([ea + eb for ea, eb in zip(EA, EB)])
    assert linalg.vstack(A, B) == _as_tuples(EA + EB)
    assert linalg.vstack(A[:a], A[a:]) == A
    assert linalg.mat_add(A, B) == _as_tuples(
        [[x + y for x, y in zip(ea, eb)] for ea, eb in zip(EA, EB)])
    assert linalg.mat_neg(A) == _as_tuples([[-x for x in r] for r in EA])
    assert mat_mul(A, transpose(B)) == _as_tuples(
        [[linalg.dot(ea, eb) for eb in EB] for ea in EA])
    for M in (T, A[a:b], linalg.hstack(A, B), linalg.mat_add(A, B), linalg.mat_neg(A)):
        assert M.is_constant() and M.nvars == (nvars if len(M) else 0)


def _rational_rows(S):
    """The rows of a sympy matrix of rationals, as Fractions."""
    return [[Fraction(int(x.p), int(x.q)) for x in S.row(i)] for i in range(S.rows)]


def _values(A):
    return [[a.constant_value() for a in row] for row in A]


@st.composite
def _elimination_case(draw):
    """A constant matrix for the int Gauss-Jordan loop: graph rows [I | B]
    (already reduced), a rank-deficient matrix, one with zero rows, or one
    with 200-digit entries; over 0 or 2 variables."""
    kind = draw(st.sampled_from(["graph", "deficient", "zero-rows", "digits"]))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 7))
    if kind == "digits":
        big = st.integers(10**199, 10**200 - 1)
        num = st.one_of(st.just(0), big, big.map(lambda a: -a), st.integers(-9, 9))
        den = st.one_of(st.integers(1, 6), big)
    else:
        num, den = st.integers(-9, 9), st.integers(1, 6)
    entry = st.builds(Fraction, num, den)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    if kind == "graph":
        rows = [[Fraction(int(i == j)) for j in range(n)] + row for i, row in enumerate(rows)]
    elif kind == "deficient" and n >= 2:
        k = draw(st.integers(1, n - 1))
        for i in range(k, n):
            c = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            rows[i] = [sum(ci * rows[r][j] for r, ci in enumerate(c)) for j in range(m)]
    elif kind == "zero-rows":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)):
            rows[i] = [Fraction(0)] * m
    return rows, draw(st.sampled_from([0, 2]))


@given(_elimination_case())
@settings(max_examples=150, deadline=None)
def test_int_gauss_jordan_matches_sympy(case):
    # rref and its pivots, nullspace, rank, and solve_det with its
    # determinant, against sympy on the same rational matrix
    rows, nvars = case
    A = from_fractions(rows, nvars)
    S = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])
    R, pivots = rref(A)
    SR, spivots = S.rref()
    assert pivots == spivots and _values(R) == _rational_rows(SR)
    assert R.is_constant() and R.nvars == nvars
    assert rank(A) == len(spivots)
    kernel = nullspace(A)
    assert _values(kernel) == [row for v in S.nullspace() for row in _rational_rows(v.T)]
    k = min(len(rows), len(rows[0]))
    Q, SQ = linalg.columns(A[:k], 0, k), S[:k, :k]
    B, SB = A[:k], S[:k, :]
    if SQ.det() == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.solve_det(Q, B)
    else:
        X, d = linalg.solve_det(Q, B)
        assert d.nvars == nvars and d.constant_value() == Fraction(str(SQ.det()))
        assert _values(X) == _rational_rows(SQ.LUsolve(SB))
