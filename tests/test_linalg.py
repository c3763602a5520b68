"""Exact linear algebra: echelon forms, Bareiss determinants, Pfaffians."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from diracdeform import linalg
from diracdeform.linalg import (
    clear_matrix,
    det,
    evaluate_matrix,
    from_fractions,
    identity,
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
from diracdeform.rational import PoleError, Poly, Scalar, random_poly, scalar_from_str


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


def _dot(u, v):
    """The reference dot product, entry by entry on Scalars."""
    total = Scalar.zero(u[0].nvars)
    for a, b in zip(u, v):
        total = total + a * b
    return total


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
        assert rank(A) == rank(mat([r0, r1]))
        # a random row is in the span iff the matrix it completes is singular
        r3 = tuple(rand_rational_function(rng, 2) for _ in range(3))
        B = mat([r0, r1, r3])
        assert (rank(B) == rank(mat([r0, r1]))) == det(B).is_zero()


def test_solve_fails_exactly_when_det_vanishes(rng):
    """solve(A, B) raises exactly when the Bareiss det(A) is zero, and
    otherwise solves A X = B, over Q and Q(x)."""
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
                solve(A, B)
            continue
        assert mat_mul(A, solve(A, B)) == B


def test_empty_matrix():
    empty = mat(())
    assert det(empty) == Scalar.one(0)
    assert tuple(inverse(empty)) == ()


def test_solve_shape_errors():
    A = from_fractions([[1, 2], [3, 4]], 0)
    with pytest.raises(ValueError):
        solve(from_fractions([[1, 2, 3], [4, 5, 6]], 0), A)
    with pytest.raises(ValueError):
        solve(A, from_fractions([[1, 2]], 0))
    with pytest.raises(ValueError):
        solve(A, from_fractions([[1], [2], [3]], 0))
    assert tuple(solve(mat(()), mat(()))) == ()


def test_rref_and_nullspace(rng):
    for _ in range(10):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        A = rand_matrix(rng, n, m)
        R, pivots = rref(A)
        assert rank(A) == len(pivots)
        for v in nullspace(A):
            image = [_dot(row, v) for row in A]
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
    # rows over a shared denominator: values as entry by entry, and a pole
    # names the caller's point
    entries = ["(x1 + x2^2)/(x2 + 2)", "x1*x2 - 1/3", "(1)/(x1 - 1)", "1"]
    C = mat([[scalar_from_str(e, 2) for e in entries[:2]],
             [scalar_from_str(e, 2) for e in entries[2:]]])
    point = [Fraction(1, 2), Fraction(-3)]
    got = evaluate_matrix(C, point)
    assert [[e.constant_value() for e in row] for row in got] == [
        [c.evaluate(point) for c in row] for row in C
    ]
    with pytest.raises(PoleError) as pole:
        evaluate_matrix(C, [1, 0])
    assert str(pole.value) == "denominator vanishes at point (1, 0)"
    # a point of the wrong length is refused, constant matrix or not
    for M in (C, mat([[Scalar.one(2), Scalar.zero(2)]])):
        for bad in ([1], [1, 0, 0]):
            with pytest.raises(ValueError, match="point dimension mismatch"):
                evaluate_matrix(M, bad)


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
    """Every linalg operation on A, over int or polynomial rows, agrees with
    sympy on the same matrix."""
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
        assert rank(A[:-1]) == S[:-1, :].rank(simplify=True)
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
    assert A.is_constant()
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
    assert Ax.is_constant()

    def results(A, Q):
        out = [tuple(rref(A)[0]), tuple(nullspace(A)), tuple(mat_mul(A, transpose(A))),
               linalg.mat_vec(A, A[0]), (det(Q),)]
        if not det(Q).is_zero():
            out.append(tuple(inverse(Q)))
        return out

    over_q, over_x = results(Aq, Qq), results(Ax, Qx)
    assert over_x == [_lift(r, nvars) for r in over_q]
    assert rref(Ax)[1] == rref(Aq)[1]
    for s in _entries(over_x):
        assert s.nvars == nvars and s.is_polynomial()
    if len(rows) >= 2:
        assert rank(Ax[:-1]) == rank(Aq[:-1])


@given(_fraction_rows(max_n=4, max_m=4), st.integers(1, 2), st.data())
@settings(max_examples=30, deadline=None)
def test_one_nonconstant_entry_takes_the_field_route(rows, nvars, data):
    """A single polynomial or rational-function entry: the matrix has no int
    rows, so `rref` and `_bareiss` run on its rows cleared to polynomials,
    and every operation agrees with sympy."""
    A = [list(row) for row in from_fractions(rows, nvars)]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    c = Poly.const(nvars, data.draw(st.integers(-3, 3)))
    x = Poly.variable(nvars, nvars) + c
    A[i][j] = data.draw(st.sampled_from([
        Scalar.from_poly(x), Scalar(Poly.one(nvars), x),
    ]))
    A = mat(A)
    assert not A.is_constant()
    _check_against_sympy(A)


@given(_fraction_rows(max_n=6, max_m=6), st.integers(0, 2), st.booleans(),
       st.sampled_from(["constant", "scaled", "entry"]))
@settings(max_examples=150, deadline=None)
def test_forward_pivot_rank_matches_sympy(rows, nvars, skew, ring):
    """The rank, skew or not, over Q or Q(x), from forward pivots alone.

    Over 1 or 2 variables, "scaled" is D A D with D = diag(x + i), which
    keeps the rank and the skewness with every nonzero entry non-constant,
    and "entry" adds x to one entry, which may change the rank.
    """
    if skew:
        # the drawn entries, read in turn, fill the strict upper triangle
        flat = [v for row in rows for v in row]
        n = len(rows)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for t, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            rows[i][j] = flat[t % len(flat)]
            rows[j][i] = -rows[i][j]
    A = from_fractions(rows, nvars)
    if nvars and ring != "constant":
        x = Scalar.variable(nvars, nvars)
        entries = [list(row) for row in A]
        if ring == "scaled":
            d = [x + Scalar.const(nvars, i) for i in range(max(len(rows), len(rows[0])))]
            entries = [[d[i] * a * d[j] for j, a in enumerate(row)]
                       for i, row in enumerate(entries)]
        else:
            entries[0][-1] = entries[0][-1] + x
        A = mat(entries)
        assert not A.is_constant() or not any(map(any, rows))

    def no_rref(*_):
        raise AssertionError("a rank reads no RREF")

    real = linalg.rref
    linalg.rref = no_rref
    try:
        got = rank(A)
    finally:
        linalg.rref = real
    assert got == _sympy_matrix(A).rank(simplify=True)


# ---------------------------------------------------------------------------
# The cleared rows of a Matrix, of ints or of polynomials, against an
# entrywise Scalar reference.
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


def _ref_is_constant(E) -> bool:
    return all(x.is_constant() for row in E for x in row)


def _as_tuples(E):
    return tuple(tuple(row) for row in E)


def _ref_nullspace(A):
    """The kernel basis read entry by entry off rref(A): one row per free
    column f, one at f and minus column f of the RREF at the pivots."""
    R, pivots = rref(A)
    zero, one = Scalar.zero(A.nvars), Scalar.one(A.nvars)
    basis = []
    for f in range(A.ncols):
        if f not in pivots:
            v = [zero] * A.ncols
            v[f] = one
            for r, pc in enumerate(pivots):
                v[pc] = -R[r][f]
            basis.append(v)
    return basis


def _values_or_pole(evaluate):
    try:
        return evaluate()
    except PoleError as exc:
        return str(exc)


_POLY = st.builds(
    lambda terms: Poly.from_terms(2, terms),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4),
                    max_size=3),
)
_FACTOR = _POLY.filter(lambda p: not p.is_constant())
_QX_ENTRY = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).map(lambda v: Scalar.const(2, v)),
    _POLY.map(Scalar.from_poly),
    st.builds(Scalar, _POLY, _FACTOR),
)


@st.composite
def _matrix_pair(draw):
    """Two matrices of one shape over one ring, with their entrywise
    references, the ring's variable count and a point of it.

    Constant pairs, over 0-2 variables, are often related: equal values
    built another way, a rescaled copy (same ints, other denominators), the
    negated transpose (skew when A is) or an independent draw.  Q(x) pairs,
    over 2 variables, hold polynomials, constants and entries with non-unit
    denominators; B may also be a constant matrix minus A, so that A + B is
    constant.  A Q(x) A may carry an entry with a pole at the point, and it
    is built by two transposes, so its entries are read from its cleared
    rows."""
    if draw(st.booleans()):
        rows = draw(_fraction_rows(max_n=4, max_m=4))
        nvars = draw(st.integers(0, 2))
        EA = _scalar_rows(rows, nvars)
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).map(
            lambda v: Scalar.const(nvars, v))
        scales = [Fraction(2), Fraction(1, 3), Fraction(-1)]
    else:
        nvars = 2
        n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        entry = _QX_ENTRY
        EA = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
        x1, x2 = Poly.variable(1, 2), Poly.variable(2, 2)
        scales = [Fraction(2), Scalar.from_poly(x1), Scalar(Poly.one(2), x2 + Poly.one(2))]
    scales = [Scalar.const(nvars, c) if isinstance(c, Fraction) else c for c in scales]
    n, m = len(EA), len(EA[0])
    zero = Scalar.zero(nvars)
    if n == m and draw(st.booleans()):
        # symmetric or skew: the upper triangle mirrored with a sign
        s = draw(st.sampled_from([1, -1]))
        for i in range(n):
            for j in range(i, n):
                EA[j][i] = (EA[i][j] if s > 0 else -EA[i][j]) if i != j else (
                    EA[i][i] if s > 0 else zero)
    point = [Fraction(draw(st.integers(-3, 3))) for _ in range(nvars)]
    if nvars == 2 and draw(st.booleans()):
        # (q (x1 - a) + 1) / (x1 - a) has a pole at x1 = a
        a = Poly.const(2, point[0])
        d = Poly.variable(1, 2) - a
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        EA[i][j] = Scalar(draw(_POLY) * d + Poly.one(2), d)
    how = draw(st.sampled_from(["same", "scaled", "neg-transpose", "complement", "other"]))
    if how == "same":
        EB = [list(r) for r in EA]
    elif how == "scaled":
        c = draw(st.sampled_from(scales))
        EB = [[c * v for v in r] for r in EA]
    elif how == "neg-transpose" and n == m:
        EB = [[-EA[j][i] for j in range(n)] for i in range(n)]
    elif how == "complement":
        C = draw(st.lists(st.lists(entry.filter(Scalar.is_constant), min_size=m, max_size=m),
                          min_size=n, max_size=n))
        EB = [[c - v for c, v in zip(cr, r)] for cr, r in zip(C, EA)]
    else:
        EB = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    if nvars == 2 and not _ref_is_constant(EA):
        A = transpose(mat(list(zip(*EA))))
    elif _ref_is_constant(EA):
        A = from_fractions([[x.constant_value() for x in r] for r in EA], nvars)
    else:
        A = mat(EA)
    return A, mat(EB), EA, EB, nvars, point, scales


@given(_matrix_pair(), st.data())
@settings(max_examples=300, deadline=None)
def test_constant_matrix_ops_match_entrywise_scalars(pair, data):
    """Every operation on the cleared rows of a Matrix, of ints for a
    constant matrix and of polynomials otherwise, equals the same operation
    done entry by entry on Scalars: lazy entry reads, ==, is_skew,
    transpose, row and column slicing, stacking, mat_add, mat_neg, mat_mul,
    mat_scale, nullspace and evaluate_matrix.  Each result also equals the
    Matrix that `mat` builds from its reference, row for row (so its rows
    are reduced), and is constant exactly when the reference is."""
    A, B, EA, EB, nvars, point, scales = pair
    assert A.is_constant() == _ref_is_constant(EA) and B.is_constant() == _ref_is_constant(EB)
    n, m = len(EA), len(EA[0])
    # lazy entry reads, by row index, by iteration and through a row slice
    assert [A[i][j] for i in range(n) for j in range(m)] == [x for r in EA for x in r]
    assert _as_tuples(EA) == tuple(A)
    # == against the reference, both ways round
    assert (A == B) == _ref_eq(EA, EB) == (B == A)
    assert (A != B) != _ref_eq(EA, EB)
    assert linalg.is_skew(A) == _ref_is_skew(EA)
    assert linalg.is_skew(B) == _ref_is_skew(EB)
    T = linalg.transpose(A)
    assert tuple(T) == _as_tuples(list(zip(*EA)))
    assert linalg.transpose(T) == A
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(a, n))
    assert tuple(A[a:b]) == _as_tuples(EA[a:b])
    c = data.draw(st.integers(0, m))
    d = data.draw(st.integers(c, m))
    if n:
        cols = linalg.columns(A, c, d)
        assert tuple(cols) == _as_tuples([r[c:d] for r in EA])
        assert linalg.hstack(linalg.columns(A, 0, c), linalg.columns(A, c, m)) == A
    assert tuple(linalg.hstack(A, B)) == _as_tuples([ea + eb for ea, eb in zip(EA, EB)])
    assert tuple(linalg.vstack(A, B)) == _as_tuples(EA + EB)
    assert linalg.vstack(A[:a], A[a:]) == A
    assert tuple(linalg.mat_add(A, B)) == _as_tuples(
        [[x + y for x, y in zip(ea, eb)] for ea, eb in zip(EA, EB)])
    assert tuple(linalg.mat_neg(A)) == _as_tuples([[-x for x in r] for r in EA])
    assert tuple(mat_mul(A, transpose(B))) == _as_tuples(
        [[_dot(ea, eb) for eb in EB] for ea in EA])
    s = data.draw(st.sampled_from(scales + [Scalar.zero(nvars)]))
    results = [
        (T, list(zip(*EA))),
        (A[a:b], EA[a:b]),
        (linalg.columns(A, c, d), [r[c:d] for r in EA]),
        (linalg.hstack(A, B), [ea + eb for ea, eb in zip(EA, EB)]),
        (linalg.vstack(A, B), EA + EB),
        (linalg.mat_add(A, B), [[x + y for x, y in zip(ea, eb)] for ea, eb in zip(EA, EB)]),
        (linalg.mat_neg(A), [[-x for x in r] for r in EA]),
        (mat_mul(A, transpose(B)), [[_dot(ea, eb) for eb in EB] for ea in EA]),
        (linalg.mat_scale(A, s), [[s * x for x in r] for r in EA]),
        (nullspace(A), _ref_nullspace(A)),
    ]
    for M, E in results:
        assert tuple(M) == _as_tuples(E)
        assert M.is_constant() == _ref_is_constant(E) and M.nvars == (nvars if len(M) else 0)
        if E and E[0]:
            assert M == mat(E)
    # the values at a point, or the same PoleError
    got = _values_or_pole(lambda: [[x.constant_value() for x in row]
                                   for row in evaluate_matrix(A, point)])
    assert got == _values_or_pole(lambda: [[x.evaluate(point) for x in row] for row in EA])
    if not isinstance(got, str):
        assert evaluate_matrix(A, point).is_constant() and evaluate_matrix(A, point).nvars == 0


@st.composite
def _elimination_case(draw):
    """A matrix for the Gauss-Jordan loop.  Constant kinds, over 0 or 2
    variables: graph rows [I | B] (already reduced), a rank-deficient
    matrix, one with zero rows, or one with 200-digit entries.  Q(x) kinds,
    over 2 variables: polynomial rows with a row times a common non-constant
    factor (so a row content is divided out), rank-deficient rows with
    polynomial coefficients, zero rows, or a rational-function entry (so the
    rows are cleared first)."""
    kind = draw(st.sampled_from(["graph", "deficient", "zero-rows", "digits",
                                 "poly-factor", "poly-deficient", "poly-zero-rows",
                                 "poly-rational"]))
    if kind.startswith("poly"):
        n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        rows = draw(st.lists(st.lists(_POLY, min_size=m, max_size=m), min_size=n, max_size=n))
        if kind == "poly-factor":
            q = draw(_FACTOR)
            i = draw(st.integers(0, n - 1))
            rows[i] = [q * a for a in rows[i]]
        elif kind == "poly-deficient" and n >= 2:
            k = draw(st.integers(1, n - 1))
            for i in range(k, n):
                c = draw(st.lists(_POLY, min_size=k, max_size=k))
                rows[i] = [sum((ci * rows[r][j] for r, ci in enumerate(c)), Poly.zero(2))
                           for j in range(m)]
        elif kind == "poly-zero-rows":
            for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)):
                rows[i] = [Poly.zero(2)] * m
        entries = [[Scalar.from_poly(a) for a in row] for row in rows]
        if kind == "poly-rational":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
            entries[i][j] = Scalar(draw(_POLY), draw(_FACTOR))
        return mat(entries)
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
    return from_fractions(rows, draw(st.sampled_from([0, 2])))


def _field_matrix(S):
    """S as a sympy `DomainMatrix` over its fraction field (ZZ(x1,x2) for
    Q(x) entries): exact rational-function arithmetic with no expression
    simplification, so the oracle's time stays bounded."""
    return DomainMatrix.from_Matrix(S).to_field()


@given(_elimination_case())
@settings(max_examples=150, deadline=None)
def test_int_gauss_jordan_matches_sympy(A):
    # rref and its pivots, nullspace, rank, and solve and det, against sympy
    # on the same matrix over Q or Q(x)
    S = _sympy_matrix(A)
    F = _field_matrix(S)
    R, pivots = rref(A)
    FR, spivots = F.rref()
    SR = FR.to_Matrix()
    assert pivots == spivots and _same(R, SR)
    assert R.nvars == A.nvars and (R.is_constant() or not A.is_constant())
    assert rank(A) == len(spivots)
    # sympy's kernel basis, read off its RREF: one vector per free column f,
    # 1 at f and minus column f of the RREF at the pivots
    free = [f for f in range(A.ncols) if f not in spivots]
    skernel = []
    for f in free:
        sv = sympy.zeros(1, A.ncols)
        sv[f] = 1
        for r, pc in enumerate(spivots):
            sv[pc] = -SR[r, f]
        skernel.append(sv)
    kernel = nullspace(A)
    assert len(kernel) == len(skernel)
    assert all(_same(mat([v]), sv) for v, sv in zip(kernel, skernel))
    k = min(A.nrows, A.ncols)
    Q, SQ = linalg.columns(A[:k], 0, k), S[:k, :k]
    B, SB = A[:k], S[:k, :]
    sdet = F.domain.to_sympy(F[:k, :k].det())
    d = det(Q)
    assert d.nvars == A.nvars and sympy.cancel(_to_sympy(d) - sdet) == 0
    if sdet == 0:
        with pytest.raises(ZeroDivisionError):
            solve(Q, B)
    else:
        X = solve(Q, B)
        assert (SQ * _sympy_matrix(X) - SB).applyfunc(sympy.cancel).is_zero_matrix
