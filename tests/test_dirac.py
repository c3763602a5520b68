"""Dirac linear algebra: the graph map F, the Dirac exponential, Lagrangian
machinery, and the transverse-complement lemma battery."""

from fractions import Fraction

import pytest

from diracdeform import linalg
from diracdeform.dirac import (
    Bivector,
    DegenerateRestrictionError,
    NonHorizontalError,
    NotComplementaryError,
    NotInIZError,
    NotSkewError,
    NotTransverseError,
    SkewBilinear,
    Subspace,
    decompose_horizontal,
    default_complement,
    dirac_exp,
    F,
    g_plus_kstar,
    graph_of_bivector,
    graph_of_form,
    in_I_Z,
    is_lagrangian,
    lagrangian_graph,
    pairing,
    phi_Z,
    rank_and_kernel,
    skew_from_json,
    skew_to_json,
    standard_basis_subspace,
    subspace_from_json,
    subspace_to_json,
    tau_bivector,
    tau_form,
    v_star_subspace,
    v_subspace,
    verify_linear_lemmas,
    Z_from_eta_G,
)
from diracdeform.rational import Scalar
from diracdeform.randgen import (
    random_complement,
    random_horizontal_skew,
    random_in_IZ,
    random_rank_k_skew,
    random_skew,
)


def const(c):
    return Scalar.const(0, Fraction(c))


# -- pairing and Lagrangians ----------------------------------------------------


def test_pairing_worked():
    z, o = const(0), const(1)
    e1 = (o, z, z, z)
    e2 = (z, o, z, z)
    e1s = (z, z, o, z)
    assert pairing(e1, e1s) == o
    assert pairing(e1, e2).is_zero()
    v = tuple(const(c) for c in (1, 2, 3, 4))
    assert pairing(v, v) == const(2 * (1 * 3 + 2 * 4))


def test_lagrangian_worked():
    assert is_lagrangian(v_subspace(2, 0))
    assert is_lagrangian(v_star_subspace(2, 0))
    bad = standard_basis_subspace(4, 0, [0, 2])  # span{(e1,0),(0,e1*)}
    assert not is_lagrangian(bad)
    assert not is_lagrangian(standard_basis_subspace(4, 0, [0]))  # wrong rank


def test_tau_worked(rng):
    n = 3
    beta = random_skew(rng, n)
    Z = random_skew(rng, n, cls=Bivector)
    # tau_beta fixes V* pointwise; tau_Z fixes V pointwise
    xi = (const(0),) * n + tuple(const(rng.randint(-4, 4)) for _ in range(n))
    assert tuple(tau_form(beta, xi)) == xi
    v = tuple(const(rng.randint(-4, 4)) for _ in range(n)) + (const(0),) * n
    assert tuple(tau_bivector(Z, v)) == v
    # graphs
    assert tau_form(beta, v_subspace(n, 0)) == graph_of_form(beta)
    assert tau_bivector(Z, v_star_subspace(n, 0)) == graph_of_bivector(Z)
    # pairing preservation and invertibility
    for _ in range(8):
        u = tuple(const(rng.randint(-5, 5)) for _ in range(2 * n))
        w = tuple(const(rng.randint(-5, 5)) for _ in range(2 * n))
        assert pairing(tau_form(beta, u), tau_form(beta, w)) == pairing(u, w)
        assert pairing(tau_bivector(Z, u), tau_bivector(Z, w)) == pairing(u, w)
        assert tuple(tau_form(-beta, tau_form(beta, u))) == u
        assert tuple(tau_bivector(-Z, tau_bivector(Z, u))) == u


# -- the map F ---------------------------------------------------------------------


def test_in_IZ_worked():
    Z = Bivector.from_pairs(2, 0, {(0, 1): 1})
    assert in_I_Z(SkewBilinear.zero(2, 0), Z)
    boundary = SkewBilinear.from_pairs(2, 0, {(0, 1): 1})
    assert not in_I_Z(boundary, Z)
    # nilpotent Z# beta#
    Z4 = Bivector.from_pairs(4, 0, {(0, 1): 1})
    beta = SkewBilinear.from_pairs(4, 0, {(0, 2): 1})
    assert in_I_Z(beta, Z4)


def test_F_two_by_two_family():
    Z = Bivector.from_pairs(2, 0, {(0, 1): 1})
    for t in (Fraction(1, 2), Fraction(3), Fraction(-2, 5)):
        beta = SkewBilinear.from_pairs(2, 0, {(0, 1): t})
        assert F(beta, Z) == SkewBilinear.from_pairs(2, 0, {(0, 1): t / (1 - t)})
    with pytest.raises(NotInIZError):
        F(SkewBilinear.from_pairs(2, 0, {(0, 1): 1}), Z)


def test_F_keeps_origin_and_Z_zero(rng):
    n = 4
    Z = random_skew(rng, n, cls=Bivector)
    assert F(SkewBilinear.zero(n, 0), Z) == SkewBilinear.zero(n, 0)
    beta = random_skew(rng, n)
    assert F(beta, Bivector.zero(n, 0)) == beta


def _F_by_definition(beta, Z):
    """beta# (id + Z# beta#)^{-1}, the reference for F's push-through solve."""
    M = linalg.mat_add(linalg.identity(beta.n, beta.nvars),
                       linalg.mat_mul(Z.mat, beta.mat))
    return linalg.mat_mul(beta.mat, linalg.inverse(M))


def test_F_properties_randomized(rng):
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        Z = random_skew(rng, n, cls=Bivector)
        beta = random_in_IZ(rng, Z)
        fb = F(beta, Z)
        assert fb.mat == _F_by_definition(beta, Z)
        assert linalg.is_skew(fb.mat)
        assert F(fb, -Z) == beta
        assert graph_of_form(fb) == phi_Z(beta, Z)
        assert is_lagrangian(phi_Z(beta, Z))


def test_Z_from_eta_G_worked():
    eta = SkewBilinear.from_pairs(4, 0, {(0, 1): 1})
    G = standard_basis_subspace(4, 0, [0, 1])
    assert Z_from_eta_G(eta, G) == Bivector.from_pairs(4, 0, {(0, 1): 1})
    # symplectic case
    eta2 = SkewBilinear.from_pairs(2, 0, {(0, 1): 1})
    G2 = v_subspace(1, 0)  # ambient 2 = all of V
    G2 = standard_basis_subspace(2, 0, [0, 1])
    assert Z_from_eta_G(eta2, G2) == Bivector.from_pairs(2, 0, {(0, 1): 1})
    # skewed complement
    o, z = const(1), const(0)
    Gp = Subspace.from_spanning(4, [(o, z, z, z), (z, o, o, z)])
    assert Z_from_eta_G(eta, Gp) == Bivector.from_pairs(4, 0, {(0, 1): 1, (0, 2): 1})


def test_Z_from_eta_G_postconditions(rng):
    for _ in range(10):
        n = rng.choice([4, 5])
        k = 2 * rng.randint(1, (n - 1) // 2)
        eta = random_rank_k_skew(rng, n, k)
        G = random_complement(rng, eta)
        Z = Z_from_eta_G(eta, G)
        # Z# eta|G# = -id on G
        for g in G.basis:
            img = linalg.mat_vec(Z.mat, eta.apply(g))
            assert tuple(a + b for a, b in zip(img, g)) == tuple(
                Scalar.zero(0) for _ in range(n)
            )
        # column space of Z# lies in G, ann(G) in the kernel
        for col in zip(*Z.mat):
            assert G.contains(col)
        from diracdeform import linalg as la

        for xi in la.nullspace(la.mat(G.basis)):
            assert all(c.is_zero() for c in la.mat_vec(Z.mat, xi))


def test_Z_from_eta_G_errors():
    eta = SkewBilinear.from_pairs(4, 0, {(0, 1): 1})
    with pytest.raises(NotComplementaryError):
        Z_from_eta_G(eta, standard_basis_subspace(4, 0, [0, 1, 2]))
    with pytest.raises(DegenerateRestrictionError):
        Z_from_eta_G(eta, standard_basis_subspace(4, 0, [0, 2]))


# -- the Dirac exponential -----------------------------------------------------------


def test_dirac_exp_worked_kernel():
    s = Scalar.variable(1, 1)
    eta = SkewBilinear.from_pairs(4, 1, {(0, 1): 1})
    G = standard_basis_subspace(4, 1, [0, 1])
    beta = SkewBilinear.from_pairs(4, 1, {(2, 0): s})
    expd = dirac_exp(eta, G, beta)
    r, ker = rank_and_kernel(expd)
    z, o = Scalar.zero(1), Scalar.one(1)
    assert r == 2
    assert ker == Subspace.from_spanning(4, [(z, s, o, z), (z, z, z, o)])
    assert dirac_exp(eta, G, SkewBilinear.zero(4, 1)) == eta


def test_dirac_exp_nonhorizontal_breakout():
    eta = SkewBilinear.from_pairs(4, 0, {(0, 1): 1})
    G = standard_basis_subspace(4, 0, [0, 1])
    beta = SkewBilinear.from_pairs(4, 0, {(2, 3): 1})
    r, _ = rank_and_kernel(dirac_exp(eta, G, beta))
    assert r == 4


def test_rank_and_kernel_worked():
    r, k = rank_and_kernel(SkewBilinear.zero(4, 0))
    assert r == 0 and k.dim == 4
    r, k = rank_and_kernel(SkewBilinear.from_pairs(4, 0, {(0, 1): 1}))
    assert r == 2 and k == standard_basis_subspace(4, 0, [2, 3])
    r, k = rank_and_kernel(SkewBilinear.from_pairs(4, 0, {(0, 1): 1, (2, 3): 1}))
    assert r == 4 and k.dim == 0


# -- horizontal decomposition ---------------------------------------------------------


def test_decompose_horizontal_worked():
    s = Scalar.variable(1, 1)
    K = standard_basis_subspace(4, 1, [2, 3])
    G = standard_basis_subspace(4, 1, [0, 1])
    beta = SkewBilinear.from_pairs(4, 1, {(2, 0): s})
    dec = decompose_horizontal(beta, K, G)
    assert dec.mu[0][0] == s and all(
        dec.mu[a][c].is_zero() for a in range(2) for c in range(2) if (a, c) != (0, 0)
    )
    assert dec.sigma == SkewBilinear.zero(2, 1)
    assert dec.reassemble() == beta

    pure_g = SkewBilinear.from_pairs(4, 1, {(0, 1): 1})
    dec2 = decompose_horizontal(pure_g, K, G)
    assert all(dec2.mu[a][c].is_zero() for a in range(2) for c in range(2))
    assert dec2.sigma == SkewBilinear.from_pairs(2, 1, {(0, 1): 1})

    with pytest.raises(NonHorizontalError):
        decompose_horizontal(
            SkewBilinear.from_pairs(4, 1, {(2, 3): 1}), K, G
        )
    with pytest.raises(NotComplementaryError):
        decompose_horizontal(pure_g, K, standard_basis_subspace(4, 1, [2, 3]))


def test_decompose_reassemble_randomized(rng):
    for _ in range(10):
        n = 4
        eta = random_rank_k_skew(rng, n, 2)
        G = random_complement(rng, eta)
        _, K = rank_and_kernel(eta)
        beta = random_horizontal_skew(rng, K, G)
        dec = decompose_horizontal(beta, K, G)
        assert dec.reassemble() == beta


# -- Lagrangian graphs ---------------------------------------------------------------


def test_lagrangian_graph_specializations(rng):
    n = 3
    beta = random_skew(rng, n)
    V = v_subspace(n, 0)
    Vs = v_star_subspace(n, 0)
    assert lagrangian_graph(V, Vs, beta.values()) == graph_of_form(beta)
    # eps = 0 returns L itself
    assert lagrangian_graph(V, Vs, SkewBilinear.zero(n, 0).values()) == V
    Z = random_skew(rng, n, cls=Bivector)
    got = lagrangian_graph(V, graph_of_bivector(Z), beta.values())
    assert got == phi_Z(beta, Z)


def test_lagrangian_graph_guards(rng):
    V = v_subspace(2, 0)
    Vs = v_star_subspace(2, 0)
    with pytest.raises(NotTransverseError):
        lagrangian_graph(V, V, SkewBilinear.zero(2, 0).values())
    nonskew = linalg.from_fractions([[1, 0], [0, 0]], 0)
    with pytest.raises(NotSkewError):
        lagrangian_graph(V, Vs, nonskew)


# -- lemma battery ----------------------------------------------------------------------


def test_lemma_battery_standard_instance():
    s = Scalar.variable(1, 1)
    eta = SkewBilinear.from_pairs(4, 1, {(0, 1): 1})
    G = standard_basis_subspace(4, 1, [0, 1])
    beta = SkewBilinear.from_pairs(4, 1, {(2, 0): s})
    assert all(verify_linear_lemmas(eta, G, beta).values())
    # degenerate input
    assert all(verify_linear_lemmas(eta, G, SkewBilinear.zero(4, 1)).values())


def test_lemma_battery_randomized(rng):
    for _ in range(12):
        n = 4
        eta = random_rank_k_skew(rng, n, 2)
        G = random_complement(rng, eta)
        Z = Z_from_eta_G(eta, G)
        beta = random_in_IZ(rng, Z)
        assert all(verify_linear_lemmas(eta, G, beta).values())


def test_g_plus_kstar_is_complement_of_graph(rng):
    for _ in range(6):
        eta = random_rank_k_skew(rng, 4, 2)
        G = random_complement(rng, eta)
        _, K = rank_and_kernel(eta)
        GK = g_plus_kstar(G, K)
        assert is_lagrangian(GK)
        assert GK.intersection(graph_of_form(eta)).dim == 0


def test_default_complement(rng):
    eta = random_rank_k_skew(rng, 4, 2)
    G = default_complement(eta)
    _, K = rank_and_kernel(eta)
    assert K.is_complement_of(G)


# -- JSON ---------------------------------------------------------------------------------


def test_payload_json_roundtrip(rng):
    # one codec for every linear matrix: skew maps and subspaces
    eta = random_rank_k_skew(rng, 4, 2)
    G = random_complement(rng, eta)
    Z = Z_from_eta_G(eta, G)
    beta = random_in_IZ(rng, Z)
    symbolic = SkewBilinear.from_pairs(4, 1, {(2, 0): Scalar.variable(1, 1)})
    for S in (eta, beta, symbolic):
        assert skew_from_json(skew_to_json(S)) == S
    assert skew_from_json(skew_to_json(Z), cls=Bivector) == Z
    assert subspace_from_json(subspace_to_json(G)) == G
