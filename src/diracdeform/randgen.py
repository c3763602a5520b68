"""Deterministic seeded generators for randomized verification.

Every generator takes an explicit `random.Random`; the harness derives one
per (seed, check, trial) so parallel and serial runs see identical streams.
Rationals are drawn with numerators and denominators bounded by 100 unless
stated otherwise, keeping fraction growth tractable under elimination.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .dirac import Bivector, HorizontalDecomposition, SkewBilinear, Subspace, in_I_Z
from .exterior import (
    Chart,
    DifferentialForm,
    MultivectorField,
    de_rham,
    function,
    wedge,
)
from .presymplectic import DistributionFrame
from .rational import Poly, Scalar, random_fraction, random_poly
from . import linalg


def random_point(rng: random.Random, n: int, bound: int = 12) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                 for _ in range(n))


def random_scalar(
    rng: random.Random, nvars: int, max_degree: int,
    bound: int = 9, polynomial: bool = True,
) -> Scalar:
    """Random two-term polynomial Scalar (default) or quotient of such."""
    num = random_poly(rng, nvars, max_degree, 2, bound)
    if polynomial:
        return Scalar.from_poly(num)
    den = Poly.zero(nvars)
    while den.is_zero():
        den = random_poly(rng, nvars, max_degree, 2, bound)
    return Scalar(num, den)


def _random_terms(cls, rng, chart, degree, max_coef_degree, density, bound):
    """A random `cls` (form or field): each index set kept with `density`."""
    terms = {}
    for idx in itertools.combinations(range(1, chart.dim + 1), degree):
        if rng.random() < density:
            terms[idx] = random_scalar(rng, chart.dim, max_coef_degree, bound=bound)
    return cls.make(chart, terms)


def random_form(
    rng: random.Random, chart: Chart, degree: int,
    max_coef_degree: int = 2, density: float = 0.6, bound: int = 9,
) -> DifferentialForm:
    return _random_terms(DifferentialForm, rng, chart, degree, max_coef_degree,
                         density, bound)


def random_field(
    rng: random.Random, chart: Chart, degree: int,
    max_coef_degree: int = 2, density: float = 0.6, bound: int = 9,
) -> MultivectorField:
    return _random_terms(MultivectorField, rng, chart, degree, max_coef_degree,
                         density, bound)


def random_bivector_field(rng: random.Random, chart: Chart) -> MultivectorField:
    """A nonzero bivector field with polynomial coefficients."""
    while True:
        Z = random_field(rng, chart, 2, 2, density=0.7, bound=6)
        if not Z.is_zero():
            return Z


# ---------------------------------------------------------------------------
# Linear-algebra instances over the rationals
# ---------------------------------------------------------------------------


def random_skew(
    rng: random.Random, n: int, nvars: int = 0, bound: int = 9,
    cls: type = SkewBilinear,
) -> SkewBilinear | Bivector:
    """A random skew matrix as a `cls`: SkewBilinear (a form) or Bivector."""
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = random_fraction(rng, bound)
            if c:
                pairs[(i, j)] = Scalar.const(nvars, c)
    return cls.from_pairs(n, nvars, pairs)


def random_invertible(rng: random.Random, n: int) -> linalg.Matrix:
    """Random invertible integer matrix, entries in -4..4 (rejection sampled)."""
    while True:
        rows = [
            [Scalar.const(0, Fraction(rng.randint(-4, 4)))
             for _ in range(n)]
            for _ in range(n)
        ]
        A = linalg.mat(rows)
        if not linalg.det(A).is_zero():
            return A


def random_rank_k_skew(rng: random.Random, n: int, k: int) -> SkewBilinear:
    """Random skew bilinear form of exact rank k, via congruence transform."""
    if k % 2 or k > n:
        raise ValueError("rank must be even and at most n")
    normal = SkewBilinear.from_pairs(
        n, 0, {(2 * i, 2 * i + 1): 1 for i in range(k // 2)}
    )
    A = random_invertible(rng, n)
    vals = linalg.mat_mul(
        linalg.transpose(A), linalg.mat_mul(normal.values(), A)
    )
    return SkewBilinear.from_values(vals)


def random_complement(
    rng: random.Random, eta: SkewBilinear, K: Subspace | None = None
) -> Subspace:
    """A complement of K = ker(eta#): the default one sheared by random K-mixes.

    K is computed from eta unless the caller already has it.
    """
    from .dirac import kernel_complement, rank_and_kernel

    if K is None:
        _, K = rank_and_kernel(eta)
    G0 = kernel_complement(K, eta.nvars)
    if K.dim == 0:
        return G0
    rows = []
    for g in G0.basis:
        v = list(g)
        for kv in K.basis:
            c = Fraction(rng.randint(-3, 3))
            if c:
                v = [a + Scalar.const(eta.nvars, c) * b for a, b in zip(v, kv)]
        rows.append(tuple(v))
    return Subspace.from_spanning(eta.n, rows)


def random_in_IZ(rng: random.Random, Z: Bivector) -> SkewBilinear:
    """Random skew form in I_Z; shrinks toward the origin until inside."""
    return shrink_into_IZ(Z, random_skew(rng, Z.n, Z.nvars))


def shrink_into_IZ(
    Z: Bivector, step: SkewBilinear, base: SkewBilinear | None = None
) -> SkewBilinear:
    """base + step / 2^j for the least j in 0..59 that lies in I_Z."""
    for j in range(60):
        scaled = step if j == 0 else SkewBilinear(
            linalg.mat_scale(step.mat, Scalar.const(step.nvars, Fraction(1, 2 ** j))),
            check=False,
        )
        cand = scaled if base is None else base + scaled
        if in_I_Z(cand, Z):
            return cand
    raise AssertionError("failed to shrink into I_Z")


def random_horizontal_skew(
    rng: random.Random, K: Subspace, G: Subspace
) -> SkewBilinear:
    """Random horizontal form (vanishing Lambda^2 K* block) via (mu, sigma)."""
    nvars = K.nvars if K.basis else G.nvars
    mK, kG = K.dim, G.dim
    mu = linalg.mat(
        [
            [Scalar.const(nvars, random_fraction(rng, 9)) for _ in range(kG)]
            for _ in range(mK)
        ]
    ) if mK else ()
    sigma = random_skew(rng, kG, nvars)
    return HorizontalDecomposition(K, G, mu, sigma).reassemble()


# ---------------------------------------------------------------------------
# Horizontal forms for a distribution frame
# ---------------------------------------------------------------------------


def random_horizontal_form(
    rng: random.Random, K: DistributionFrame, degree: int,
    max_coef_degree: int = 2, bound: int = 6,
) -> DifferentialForm:
    """A random element of the ideal generated by the annihilator of K."""
    chart = K.chart
    if degree == 0:
        return DifferentialForm.zero(chart)
    out = DifferentialForm.zero(chart)
    for xi in K.annihilator:
        if rng.random() < 0.25 and not out.is_zero():
            continue
        if degree == 1:
            out = out + xi.scale(
                random_scalar(rng, chart.dim, max_coef_degree, bound=bound)
            )
        else:
            rest = random_form(rng, chart, degree - 1, max_coef_degree,
                               density=0.5, bound=bound)
            out = out + wedge(xi, rest)
    return out


# ---------------------------------------------------------------------------
# Pre-symplectic instances: sheared normal forms
# ---------------------------------------------------------------------------


def presymplectic_normal_form(chart: Chart, k: int) -> DifferentialForm:
    """sum of dx_{2i-1} ^ dx_{2i} for i = 1..k/2."""
    if k % 2 or k > chart.dim:
        raise ValueError("rank must be even and at most the dimension")
    terms = {(2 * i + 1, 2 * i + 2): 1 for i in range(k // 2)}
    return DifferentialForm.make(chart, terms)


def coordinate_complement_frame(chart: Chart, k: int):
    """The constant frame (d_1 .. d_k): a complement of the kernel of any
    sheared normal form, with constant determinant against its kernel frame."""
    from .presymplectic import DistributionFrame
    from .exterior import partial

    point = (Fraction(0),) * chart.dim
    return DistributionFrame(
        chart, tuple(partial(chart, i) for i in range(1, k + 1)), point
    )


def random_presymplectic_instance(
    rng: random.Random, chart: Chart, k: int, shear_degree: int = 1
):
    """A certified instance: sheared normal form with the coordinate complement.

    Nonlinear shears make the kernel frame non-constant, in which case the
    default dot-product complement need not be certifiably transverse on the
    whole chart; the coordinate complement always is (its determinant against
    the sheared kernel frame is a unit).
    """
    from .presymplectic import build_presymplectic

    eta = random_presymplectic_form(rng, chart, k, shear_degree)
    return build_presymplectic(eta, coordinate_complement_frame(chart, k))


def random_presymplectic_form(
    rng: random.Random, chart: Chart, k: int, shear_degree: int = 1,
    bound: int = 4,
) -> DifferentialForm:
    """Pullback of the rank-k normal form under a unimodular polynomial shear.

    The shear moves the first k coordinates by polynomials in the kernel
    coordinates x_{k+1}..x_n only, so the {1..k} Pfaffian block stays the
    constant normal form and certification succeeds by construction.
    """
    n = chart.dim
    if shear_degree == 0 or k == n:
        return presymplectic_normal_form(chart, k)
    phis = []
    for j in range(1, k + 1):
        p = Scalar.variable(j, n)
        shift = Poly.zero(n)
        for _ in range(2):
            exps = [0] * n
            for _ in range(rng.randint(1, shear_degree)):
                exps[rng.randrange(k, n)] += 1
            c = random_fraction(rng, bound)
            if c:
                shift = shift + Poly.from_terms(n, {tuple(exps): c})
        phis.append(p + Scalar.from_poly(shift))
    eta = DifferentialForm.zero(chart)
    for i in range(k // 2):
        da = de_rham(function(chart, phis[2 * i]))
        db = de_rham(function(chart, phis[2 * i + 1]))
        eta = eta + wedge(da, db)
    return eta
