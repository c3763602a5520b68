"""Dirac linear algebra: the graph map F, the Dirac exponential, Lagrangian
machinery, and the transverse-complement lemma battery."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracdeform import dirac, linalg
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
    matrix_to_json,
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
from diracdeform.rational import Scalar, scalar_from_str, scalar_to_str
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


@st.composite
def _constant_entry(draw):
    """A constant payload entry and its value: a JSON int, or a literal with
    a sign run, a fraction not in lowest terms and spaces anywhere."""
    a = draw(st.one_of(st.integers(0, 12), st.integers(0, 10**30)))
    if draw(st.integers(0, 4)) == 0:
        value = draw(st.sampled_from([a, -a]))
        return value, Fraction(value)
    d = draw(st.one_of(st.none(), st.integers(1, 12)))
    signs = draw(st.text("+-", max_size=4))
    text = signs + str(a) + ("" if d is None else f"/{d}")
    for i in draw(st.lists(st.integers(0, len(text)), max_size=3)):
        text = text[:i] + " " + text[i:]
    return text, Fraction(-a if signs.count("-") % 2 else a, d or 1)


@st.composite
def _constant_payload(draw):
    """k rows of n constant entries (some rows zero), over 0 or n variables,
    with the value of each entry."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8))
    nvars = draw(st.sampled_from([0, n]))
    zero = st.sampled_from([(0, Fraction(0)), ("0", Fraction(0)),
                            ("-0/5", Fraction(0)), (" 0 ", Fraction(0))])
    rows = []
    for _ in range(k):
        entry = zero if draw(st.integers(0, 5)) == 0 else _constant_entry()
        rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    entries = [[e for e, _ in row] for row in rows]
    values = [[v for _, v in row] for row in rows]
    return entries, values, nvars, n


def _scalar_read(rows, nvars):
    """A payload matrix read entry by entry through scalar_from_str."""
    return linalg.mat([[scalar_from_str(str(a), nvars) for a in row] for row in rows])


def _outcome(read):
    try:
        return read()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


@given(_constant_payload())
@settings(max_examples=200, deadline=None)
def test_int_codec_matches_scalar_codec(payload):
    # a constant payload is read into int rows and written from them; both
    # sides equal the scalar_from_str / scalar_to_str route and the values
    rows, values, nvars, n = payload
    M = dirac._payload_matrix(rows, nvars, None, n)
    ref = _scalar_read(rows, nvars)
    assert M.is_constant() and (M.nrows, M.ncols, M.nvars) == (ref.nrows, ref.ncols, ref.nvars)
    assert linalg.int_rows(M) == linalg.int_rows(ref)
    assert M == ref and tuple(M) == tuple(ref)
    assert [[a.constant_value() for a in row] for row in M] == values
    products = linalg.mat_mul(M, linalg.transpose(linalg.mat_scale(M, Scalar.const(nvars, Fraction(2, 3)))))
    for A in (M, products):
        written = matrix_to_json(A)
        assert written == [[scalar_to_str(a) for a in row] for row in A]
        assert dirac._payload_matrix(written, nvars, None, A.ncols) == A


MALFORMED = ["1/0", "- -3/0", "0.5", True, None, ["0"], "1" * 5001, "x1", "", "--",
             "3/-4", "(1)/(0)"]


@given(_constant_payload(), st.sampled_from(MALFORMED), st.data())
@settings(max_examples=200, deadline=None)
def test_int_codec_refuses_like_the_scalar_codec(payload, bad, data):
    # one entry that is not a literal, anywhere: the payload is read as the
    # scalar route reads it, with the same value or the same error.  "x1" is
    # a symbolic entry over n variables and out of range over none.
    rows, _, nvars, n = payload
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, n - 1))
    rows[i][j] = bad
    got = _outcome(lambda: dirac._payload_matrix(rows, nvars, None, n))
    want = _outcome(lambda: _scalar_read(rows, nvars))
    assert got == want
    if isinstance(want, linalg.Matrix):
        assert got.is_constant() == want.is_constant()
