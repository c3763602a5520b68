"""Exact linear algebra: echelon forms, Bareiss determinants, Pfaffians."""

import itertools
from fractions import Fraction

import pytest

from diracdeform import linalg
from diracdeform.linalg import (
    det,
    evaluate_matrix,
    from_fractions,
    identity,
    in_span,
    inverse,
    mat,
    mat_mul,
    nullspace,
    pfaffian,
    rank,
    rref,
)
from diracdeform.rational import Poly, Scalar, degree_cap, random_poly


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
    with degree_cap(None):
        for n in (2, 3, 4):
            for _ in range(6):
                A = rand_matrix(rng, n, n)
                assert det(A) == det_permanent_oracle(A)
        for _ in range(4):
            A = rand_matrix(rng, 3, 3, nvars=2, deg=1)
            assert det(A) == det_permanent_oracle(A)


def test_inverse_round_trip(rng):
    with degree_cap(None):
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
    with degree_cap(None):
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
    with degree_cap(None):
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


def test_empty_matrix():
    assert det(()) == Scalar.one(0)
    assert inverse(()) == ()


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
    with degree_cap(None):
        for n in (2, 4, 6):
            for _ in range(4):
                pairs = {}
                for i in range(n):
                    for j in range(i + 1, n):
                        pairs[(i, j)] = Fraction(rng.randint(-5, 5))
                from diracdeform.dirac import SkewBilinear

                S = SkewBilinear.from_pairs(n, 0, pairs)
                V = S.values()
                pf = pfaffian(V)
                assert pf * pf == det(V)


def test_pfaffian_worked():
    from diracdeform.dirac import SkewBilinear

    A = SkewBilinear.from_pairs(4, 0, {(0, 1): 1, (2, 3): 1}).values()
    assert pfaffian(A) == Scalar.one(0)
    assert pfaffian(A, (0, 1)) == Scalar.one(0)
    assert pfaffian(A, (0, 2)).is_zero()
    assert pfaffian(A, (0, 1, 2)).is_zero()  # odd size
    assert pfaffian(A, ()) == Scalar.one(0)


def test_evaluate_matrix():
    x = Scalar.variable(1, 1)
    A = mat([[x, Scalar.one(1)], [Scalar.zero(1), x * x]])
    B = evaluate_matrix(A, [Fraction(3)])
    assert B[0][0].constant_value() == 3
    assert B[1][1].constant_value() == 9
