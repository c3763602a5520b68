"""Dirac linear algebra over an exact field: V + V*, Lagrangian subspaces,
gauge transforms, the graph map F, and the Dirac exponential.

All operations work over Scalars with any number of variables, so the same
code runs pointwise over Q (nvars=0) and symbolically over Q(x1..xn).

Matrix conventions.  Every matrix is a `linalg.Matrix`; vectors are tuples
of Scalars.  A SkewBilinear stores the matrix of the sharp map V -> V* in
the standard basis (column action): column j is beta#(e_j), i.e.
mat[i][j] = beta(e_j, e_i).  A Bivector stores the sharp map V* -> V the same
way.  Subspaces store their basis vectors as the rows of a matrix in reduced
row echelon form, which is the canonical representative used for equality.
The builders of this module (graphs, gauge blocks, G + K*, Gram matrices,
images of subspaces) work on whole matrices, by products, stacking and
column slices, so a matrix stays on the cleared rows of `linalg` (of ints
for a matrix of constants) from end to end and its entry Scalars are built
only where an entry is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .exterior import MAX_CHART_DIM, MAX_LINEAR_DIM
from .rational import (
    Scalar,
    _shown,
    literal_from_str,
    scalar_from_str,
    scalar_to_str,
)
from . import linalg
from .linalg import Matrix


class DimensionMismatchError(ValueError):
    pass


class NotSkewError(ValueError):
    pass


class NotInIZError(ValueError):
    """beta is outside I_Z: id + Z# beta# is singular."""


class DegenerateRestrictionError(ValueError):
    """The restriction eta|_G is singular."""


class NotComplementaryError(ValueError):
    pass


class NonHorizontalError(ValueError):
    """The Lambda^2 K* block of the form does not vanish."""


class NotTransverseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Skew matrices housing sharp maps
# ---------------------------------------------------------------------------


class _SkewSharp:
    __slots__ = ("mat",)

    def __init__(self, mat: Matrix, check: bool = True):
        mat = linalg.mat(mat)
        if mat.nrows != mat.ncols:
            raise DimensionMismatchError("skew matrix must be square")
        if check and not linalg.is_skew(mat):
            raise NotSkewError(f"{type(self).__name__} matrix must be skew")
        self.mat = mat

    @property
    def n(self) -> int:
        return self.mat.nrows

    @property
    def nvars(self) -> int:
        return self.mat.nvars

    @classmethod
    def zero(cls, n: int, nvars: int):
        return cls(linalg.zeros(n, n, nvars), check=False)

    @classmethod
    def from_pairs(cls, n: int, nvars: int, pairs: Mapping[tuple[int, int], object]):
        """Build sum of c * e_i ^ e_j from {(i, j): c} with 0-based i < j.

        For a form this means value(i, j) = c; the stored sharp matrix gets
        mat[j][i] = c and mat[i][j] = -c.
        """
        rows = [[Scalar.zero(nvars) for _ in range(n)] for _ in range(n)]
        for (i, j), raw in pairs.items():
            if i == j:
                raise NotSkewError("diagonal entry in skew data")
            c = raw if isinstance(raw, Scalar) else Scalar.const(nvars, Fraction(raw))
            rows[j][i] = rows[j][i] + c
            rows[i][j] = rows[i][j] - c
        return cls(rows, check=False)

    @classmethod
    def from_values(cls, values: Matrix):
        """Build from the matrix of bilinear values value(i, j)."""
        return cls(linalg.transpose(values))

    def value(self, i: int, j: int) -> Scalar:
        """The bilinear value on basis vectors (0-based): beta(e_i, e_j)."""
        return self.mat[j][i]

    def values(self) -> Matrix:
        return linalg.transpose(self.mat)

    def gram(self, left: Matrix, right: Matrix) -> Matrix:
        """The values beta(l_a, r_b) on the rows l_a of `left` and r_b of
        `right`: left . values . right^T."""
        if not left or not right:
            return linalg.zeros(len(left), len(right), self.nvars)
        return linalg.mat_mul(
            linalg.mat_mul(left, self.values()), linalg.transpose(right)
        )

    def __add__(self, other):
        if type(self) is not type(other):
            raise TypeError("cannot mix skew kinds")
        return type(self)(linalg.mat_add(self.mat, other.mat), check=False)

    def __neg__(self):
        return type(self)(linalg.mat_neg(self.mat), check=False)

    def __eq__(self, other):
        return type(self) is type(other) and self.mat == other.mat

    def __repr__(self):
        rows = "; ".join(
            ", ".join(scalar_to_str(a) for a in row) for row in self.mat
        )
        return f"{type(self).__name__}[{rows}]"


class SkewBilinear(_SkewSharp):
    """A 2-form on V; the matrix is beta#: V -> V*."""


class Bivector(_SkewSharp):
    """A bivector on V; the matrix is Z#: V* -> V."""


# ---------------------------------------------------------------------------
# Subspaces in canonical echelon form
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of Q^m (or of the function-field column space).

    The basis is stored as rows in reduced row echelon form; two subspaces
    are equal iff their stored bases are identical.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: Matrix):
        self.ambient = ambient
        self.basis = linalg.mat(basis)

    @classmethod
    def from_spanning(cls, ambient: int, vectors: Matrix | Sequence[Sequence[Scalar]]):
        vectors = linalg.mat(vectors)
        if not vectors:
            return cls(ambient, vectors)
        if vectors.ncols != ambient:
            raise DimensionMismatchError("spanning vector of wrong length")
        R, pivots = linalg.rref(vectors)
        return cls(ambient, R[: len(pivots)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def nvars(self) -> int:
        return self.basis.nvars

    def transform(self, M: Matrix) -> "Subspace":
        """Image under the linear map with column-action matrix M: the rows
        M b of the basis rows b, i.e. basis . M^T."""
        images = linalg.mat_mul(self.basis, linalg.transpose(M))
        return Subspace.from_spanning(len(M), images)

    def intersection_dim(self, other: "Subspace") -> int:
        """dim(self cap other) by Grassmann's formula: dim A + dim B minus
        the dimension of the span of both bases."""
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient mismatch")
        return self.dim + other.dim - span_dim(self.basis, other.basis)

    def is_complement_of(self, other: "Subspace") -> bool:
        return (
            self.ambient == other.ambient
            and self.dim + other.dim == self.ambient
            and self.intersection_dim(other) == 0
        )

    def orthogonal_complement(self) -> "Subspace":
        """Dot-product orthogonal complement (kernel of the basis matrix)."""
        if not self.basis:
            raise ValueError("orthogonal complement needs a nonzero subspace")
        return Subspace.from_spanning(
            self.ambient, linalg.nullspace(self.basis)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __repr__(self):
        rows = "; ".join(
            ", ".join(scalar_to_str(a) for a in v) for v in self.basis
        )
        return f"Subspace({self.ambient}; {rows})"


def span_dim(*blocks: Matrix) -> int:
    """The dimension of the span of the stacked rows of the blocks: the
    pivot count of `linalg.rref`, whose Gauss-Jordan leaves a row alone
    where it is zero in the pivot column.  Echelon bases are mostly zeros;
    a forward Bareiss pass (`linalg.rank`) rescales every row at every
    pivot, so on them its entries grow into full minors."""
    return len(linalg.rref(linalg.vstack(*blocks))[1])


def standard_basis_subspace(ambient: int, nvars: int, indices: Sequence[int]) -> Subspace:
    """Span of the listed standard basis vectors (0-based)."""
    rows = linalg.identity(ambient, nvars)
    return Subspace.from_spanning(ambient, linalg.vstack(*(rows[i:i + 1] for i in indices)))


# ---------------------------------------------------------------------------
# The pairing space V + V*
# ---------------------------------------------------------------------------


def pairing(u: Sequence[Scalar], w: Sequence[Scalar]) -> Scalar:
    """The split pairing <(v, xi), (w, chi)> = xi(w) + chi(v) on V + V*."""
    if len(u) != len(w) or len(u) % 2:
        raise DimensionMismatchError("pairing needs two vectors in V + V*")
    n = len(u) // 2
    nvars = u[0].nvars
    total = Scalar.zero(nvars)
    for i in range(n):
        total = total + u[n + i] * w[i] + w[n + i] * u[i]
    return total


def is_lagrangian(W: Subspace) -> bool:
    """Rank n and all pairwise pairings of basis vectors vanish."""
    if W.ambient % 2:
        return False
    n = W.ambient // 2
    if W.dim != n:
        return False
    # <b_i, b_j> = Q_ij + Q_ji for Q = (V* halves) . (V halves)^T, so the
    # basis is isotropic iff Q is skew
    B = W.basis
    Q = linalg.mat_mul(
        linalg.columns(B, n, 2 * n), linalg.transpose(linalg.columns(B, 0, n))
    )
    return linalg.is_skew(Q)


def v_subspace(n: int, nvars: int) -> Subspace:
    return standard_basis_subspace(2 * n, nvars, range(n))


def v_star_subspace(n: int, nvars: int) -> Subspace:
    return standard_basis_subspace(2 * n, nvars, range(n, 2 * n))


def _graph(top: Matrix, bottom: Matrix) -> Subspace:
    """The image {(top u, bottom u)} in V + V*: the rows top_i + bottom_i,
    with top_i, bottom_i the i-th columns of the two n x n matrices."""
    rows = linalg.hstack(linalg.transpose(top), linalg.transpose(bottom))
    return Subspace.from_spanning(2 * len(top), rows)


def graph_of_form(beta: SkewBilinear) -> Subspace:
    """graph(beta) = {(v, beta# v)} in V + V*."""
    return _graph(linalg.identity(beta.n, beta.nvars), beta.mat)


def graph_of_bivector(Z: Bivector) -> Subspace:
    """graph(Z) = {(Z# xi, xi)} in V + V*."""
    return _graph(Z.mat, linalg.identity(Z.n, Z.nvars))


def _blocks(A: Matrix, B: Matrix, C: Matrix, D: Matrix) -> Matrix:
    """The 2n x 2n matrix [[A, B], [C, D]] of four n x n blocks."""
    return linalg.vstack(linalg.hstack(A, B), linalg.hstack(C, D))


def _gauge(M: Matrix, target):
    """Apply the map M of V + V* to a vector or a subspace of V + V*."""
    if isinstance(target, Subspace):
        if target.ambient != len(M):
            raise DimensionMismatchError("subspace not in V + V*")
        return target.transform(M)
    if len(target) != len(M):
        raise DimensionMismatchError("vector not in V + V*")
    return linalg.mat_vec(M, tuple(target))


def tau_form(beta: SkewBilinear, target):
    """Gauge transform (v, xi) -> (v, xi + beta# v) on vectors or subspaces."""
    one = linalg.identity(beta.n, beta.nvars)
    zero = linalg.zeros(beta.n, beta.n, beta.nvars)
    return _gauge(_blocks(one, zero, beta.mat, one), target)


def tau_bivector(Z: Bivector, target):
    """Gauge transform (v, xi) -> (v + Z# xi, xi) on vectors or subspaces."""
    one = linalg.identity(Z.n, Z.nvars)
    zero = linalg.zeros(Z.n, Z.n, Z.nvars)
    return _gauge(_blocks(one, Z.mat, zero, one), target)


# ---------------------------------------------------------------------------
# The map F and the Dirac exponential
# ---------------------------------------------------------------------------


def _id_plus(A: Matrix, B: Matrix, nvars: int) -> Matrix:
    """id + A B for n x n matrices A and B."""
    return linalg.mat_add(linalg.identity(len(A), nvars), linalg.mat_mul(A, B))


def i_z_determinant(beta: SkewBilinear, Z: Bivector) -> Scalar:
    """det(id + Z# beta#), the invertibility certificate for I_Z membership.

    Over rational functions a nonzero determinant means generic membership;
    its numerator is the vanishing locus where pointwise membership fails.
    """
    if beta.n != Z.n:
        raise DimensionMismatchError("dimension mismatch")
    return linalg.det(_id_plus(Z.mat, beta.mat, beta.nvars))


def in_I_Z(beta: SkewBilinear, Z: Bivector) -> bool:
    return not i_z_determinant(beta, Z).is_zero()


def F(beta: SkewBilinear, Z: Bivector) -> SkewBilinear:
    """The graph map: F(beta)# = beta# (id + Z# beta#)^{-1}.

    Solved as (id + beta# Z#) X = beta# (push-through identity).  Both
    matrices have the same determinant (Sylvester), so NotInIZError is
    raised exactly outside I_Z.
    """
    return SkewBilinear(_push_through(beta, Z)[1])


def F_and_det(beta: SkewBilinear, Z: Bivector) -> tuple[SkewBilinear, Scalar]:
    """F(beta) and det(id + Z# beta#): the solve of (id + beta# Z#) X = beta#
    and one forward Bareiss pass on id + beta# Z#, whose determinant is the
    same by Sylvester's identity det(id + beta# Z#) = det(id + Z# beta#)."""
    M, X = _push_through(beta, Z)
    return SkewBilinear(X), linalg.det(M)


def _push_through(beta: SkewBilinear, Z: Bivector) -> tuple[Matrix, Matrix]:
    """M = id + beta# Z# and the solution X of M X = beta#, with a singular
    system as NotInIZError."""
    if beta.n != Z.n:
        raise DimensionMismatchError("dimension mismatch")
    M = _id_plus(beta.mat, Z.mat, beta.nvars)
    try:
        return M, linalg.solve(M, beta.mat)
    except ZeroDivisionError as exc:
        raise NotInIZError("id + Z# beta# is singular") from exc


def Z_from_eta_G(eta: SkewBilinear, G: Subspace) -> Bivector:
    """The bivector in Lambda^2 G with Z# = -(eta|_G#)^{-1}, pushed to V."""
    if G.ambient != eta.n:
        raise DimensionMismatchError("G not a subspace of V")
    k = linalg.rank(eta.mat)
    if G.dim != k:
        raise NotComplementaryError(
            f"dim G = {G.dim} but rank(eta) = {k}"
        )
    return Z_from_frame(eta, G.basis)


def Z_from_frame(eta: SkewBilinear, frame: Matrix) -> Bivector:
    """Gamma (Gamma^T eta Gamma)^{-1} Gamma^T for the frame rows g_a (the
    columns of Gamma): Z# = -(eta|_G#)^{-1} on G = span(g_a), pushed to V.

    The frame is not checked against ker(eta); `Z_from_eta_G` checks it.
    An empty frame gives the zero bivector.
    """
    if not frame:
        return Bivector.zero(eta.n, eta.nvars)
    Sg = eta.gram(frame, frame)
    try:
        W = linalg.mat_mul(linalg.transpose(frame), linalg.solve(Sg, frame))
    except ZeroDivisionError as exc:
        raise DegenerateRestrictionError("eta|_G is singular") from exc
    return Bivector(W)


def dirac_exp(eta: SkewBilinear, G: Subspace, beta: SkewBilinear) -> SkewBilinear:
    """The Dirac exponential exp_eta(beta) = eta + F(beta) for Z built from (eta, G)."""
    Z = Z_from_eta_G(eta, G)
    return eta + F(beta, Z)


def rank_and_kernel(beta: SkewBilinear) -> tuple[int, Subspace]:
    """Exact rank and canonical kernel of a skew matrix; rank is always even."""
    n = beta.n
    kernel = Subspace.from_spanning(n, linalg.nullspace(beta.mat))
    r = n - kernel.dim
    if r % 2:
        raise AssertionError("skew matrix with odd rank")
    return r, kernel


def default_complement(eta: SkewBilinear) -> Subspace:
    """Dot-product orthogonal complement of ker(eta#), the default G."""
    _, kernel = rank_and_kernel(eta)
    return kernel_complement(kernel, eta.nvars)


def kernel_complement(kernel: Subspace, nvars: int) -> Subspace:
    """Dot-product orthogonal complement of a kernel; all of V if it is zero."""
    if kernel.dim == 0:
        return standard_basis_subspace(kernel.ambient, nvars, range(kernel.ambient))
    return kernel.orthogonal_complement()


# ---------------------------------------------------------------------------
# Horizontal decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HorizontalDecomposition:
    """beta = (mu, sigma) in (K* x G*) + Lambda^2 G* w.r.t. frames of K and G.

    mu[a][c] = beta(k_a, g_c); sigma is the restriction of beta to G in the
    G-frame.  `reassemble` reproduces the ambient form exactly.
    """

    K: Subspace
    G: Subspace
    mu: Matrix
    sigma: SkewBilinear

    def reassemble(self) -> SkewBilinear:
        mK = self.K.dim
        nvars = self.K.nvars if self.K.basis else self.G.nvars
        P = linalg.transpose(linalg.vstack(self.K.basis, self.G.basis))  # columns = frame
        # the values in the frame: [[0, mu], [-mu^T, sigma]]
        hat = self.sigma.values()
        if mK:
            hat = linalg.vstack(
                linalg.hstack(linalg.zeros(mK, mK, nvars), self.mu),
                linalg.hstack(linalg.mat_neg(linalg.transpose(self.mu)), hat),
            )
        Pinv = linalg.inverse(P)
        vals = linalg.mat_mul(linalg.transpose(Pinv), linalg.mat_mul(hat, Pinv))
        return SkewBilinear.from_values(vals)


def decompose_horizontal(
    beta: SkewBilinear, K: Subspace, G: Subspace
) -> HorizontalDecomposition:
    """Split a horizontal form into its mixed block mu and its G-block sigma."""
    n = beta.n
    if K.ambient != n or G.ambient != n:
        raise DimensionMismatchError("frame ambient mismatch")
    if not K.is_complement_of(G):
        raise NotComplementaryError("K and G are not complementary")
    # beta is skew, so its K-block vanishes iff it is the zero matrix
    k_block = beta.gram(K.basis, K.basis)
    if k_block != linalg.zeros(K.dim, K.dim, beta.nvars):
        raise NonHorizontalError("Lambda^2 K* block of beta does not vanish")
    mu = beta.gram(K.basis, G.basis)
    sigma_vals = beta.gram(G.basis, G.basis)
    return HorizontalDecomposition(K, G, mu, SkewBilinear.from_values(sigma_vals))


# ---------------------------------------------------------------------------
# Lagrangian graphs
# ---------------------------------------------------------------------------


def lagrangian_graph(L: Subspace, R: Subspace, eps: Matrix) -> Subspace:
    """Graph of the skew map L -> R induced by eps via R = L*.

    eps is the matrix of a skew bilinear form w.r.t. the stored canonical
    basis of L.  The output is spanned by l_i + sum_a x_a r_a where the x
    solve <sum_a x_a r_a, l_j> = eps[i][j].
    """
    if L.ambient != R.ambient or L.ambient % 2:
        raise DimensionMismatchError("subspaces must live in V + V*")
    n = L.ambient // 2
    if L.dim != n or R.dim != n or not L.is_complement_of(R):
        raise NotTransverseError("L and R must be transverse Lagrangians")
    if not linalg.is_skew(eps):
        raise NotSkewError("eps must be skew")
    # gram[b][a] = <r_a, l_b>, so column i of gram^-1 eps^T holds the
    # coefficients x of row i; <r, l> is l . (r with its V and V* halves
    # swapped).
    swapped = linalg.hstack(
        linalg.columns(R.basis, n, 2 * n), linalg.columns(R.basis, 0, n)
    )
    gram = linalg.mat_mul(L.basis, linalg.transpose(swapped))
    try:
        X = linalg.transpose(linalg.solve(gram, linalg.transpose(eps)))
    except ZeroDivisionError:
        raise NotTransverseError("degenerate pairing between L and R") from None
    rows = linalg.mat_add(L.basis, linalg.mat_mul(X, R.basis))
    return Subspace.from_spanning(2 * n, rows)


def phi_Z(beta: SkewBilinear, Z: Bivector) -> Subspace:
    """The Lagrangian {(v + Z#(iota_v beta), iota_v beta)} transverse to graph(Z)."""
    return _graph(_id_plus(Z.mat, beta.mat, beta.nvars), beta.mat)


# ---------------------------------------------------------------------------
# The lemma battery
# ---------------------------------------------------------------------------


def g_plus_kstar(G: Subspace, K: Subspace) -> Subspace:
    """The complement G + K* of graph(eta), with K* = ann(G) inside V*: the
    rows (g, 0) and (0, xi) with xi in ann(G), reduced once."""
    n = G.ambient
    nvars = K.nvars if K.basis else G.nvars
    if G.dim == 0:
        return v_star_subspace(n, nvars)
    xi = linalg.nullspace(G.basis)
    rows = linalg.vstack(
        linalg.hstack(G.basis, linalg.zeros(G.dim, n, nvars)),
        linalg.hstack(linalg.zeros(len(xi), n, nvars), xi),
    )
    return Subspace.from_spanning(2 * n, rows)


def verify_linear_lemmas(
    eta: SkewBilinear, G: Subspace, beta: SkewBilinear
) -> dict[str, bool]:
    """Exact two-sided checks of the transverse-complement lemma battery.

    Each check computes both sides by independent code paths; all must hold
    for every valid input (they are theorems).  Returns {lemma: bool}.
    """
    n, nvars = eta.n, eta.nvars
    _, K = rank_and_kernel(eta)
    if not K.is_complement_of(G):
        raise NotComplementaryError("G is not a complement of ker(eta)")
    Z = Z_from_eta_G(eta, G)
    results: dict[str, bool] = {}

    GK = g_plus_kstar(G, K)
    graph_Z = graph_of_bivector(Z)
    graph_eta = graph_of_form(eta)

    # tau_{-eta} maps G + K* onto graph(Z)
    results["teZ"] = tau_form(-eta, GK) == graph_Z

    # the corresponding form on graph(eta) via l_v = v + iota_v eta is beta itself
    eps_bar = beta.values()
    phi_gk = lagrangian_graph(graph_eta, GK, eps_bar)
    phiz = phi_Z(beta, Z)
    results["tme"] = tau_form(-eta, phi_gk) == phiz

    # rank comparison: dim(Phi cap V) equals dim{v in K : iota_v beta in ann(K)}
    V = v_subspace(n, nvars)
    rhs_dim = _relative_kernel(
        linalg.mat_mul(K.basis, linalg.transpose(beta.mat)),  # rows beta#(k)
        linalg.nullspace(K.basis),  # ann(K)
    )
    results["rankgood"] = phi_gk.intersection_dim(V) == rhs_dim

    # graph(exp_eta(beta)) = Phi_{G + K*}(beta-bar), when beta is in I_Z
    member = in_I_Z(beta, Z)
    if member:
        f_beta = F(beta, Z)
        results["niceeq"] = graph_of_form(eta + f_beta) == phi_gk
        results["phizbeta"] = graph_of_form(f_beta) == phiz
        results["almost_dirac_iii"] = _phi0_inverse_matches_F(phiz, f_beta)
    else:
        results["niceeq"] = True
        results["phizbeta"] = True
        results["almost_dirac_iii"] = True

    # Phi_Z(beta) transverse to V* iff beta in I_Z
    vstar = v_star_subspace(n, nvars)
    transverse = phiz.intersection_dim(vstar) == 0
    results["almost_dirac_ii"] = transverse == member

    return results


def _relative_kernel(images: Matrix, span_rows: Matrix) -> int:
    """dim of {c : sum c_a images_a lies in span(span_rows)}: the count of
    images less the dimension they add to span(span_rows)."""
    return len(images) - span_dim(images, span_rows) + span_dim(span_rows)


def _phi0_inverse_matches_F(phiz: Subspace, f_beta: SkewBilinear) -> bool:
    """Read Phi_Z(beta) as a graph over V and compare with F(beta)."""
    n = phiz.ambient // 2
    top = linalg.columns(phiz.basis, 0, n)
    bottom = linalg.columns(phiz.basis, n, 2 * n)
    # rows of the graph are (v, alpha# v): top alpha#^T = bottom
    try:
        alpha = SkewBilinear(linalg.transpose(linalg.solve(top, bottom)))
    except (ZeroDivisionError, NotSkewError):
        return False
    return alpha == f_beta


# ---------------------------------------------------------------------------
# JSON instance format
# ---------------------------------------------------------------------------


def matrix_to_json(A: Matrix) -> list[list[str]]:
    """The entries as `scalar_to_str` writes them; a constant matrix is
    written from its int rows, with one gcd per entry over a denominator."""
    if not A.is_constant():
        return [[scalar_to_str(a) for a in row] for row in A]
    return [
        [str(a) if d == 1 else _ratio_str(a, d) for a in row]
        for row, d in zip(*linalg.cleared_rows(A))
    ]


def _ratio_str(a: int, d: int) -> str:
    """a/d in lowest terms, as `scalar_to_str` writes that constant."""
    g = gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


# Check payloads carry each matrix with its size and field of definition:
#   skew maps {"n", "nvars", "rows"}, subspaces {"ambient", "nvars", "rows"}.


def skew_to_json(S: _SkewSharp) -> dict:
    return {"n": S.n, "nvars": S.nvars, "rows": matrix_to_json(S.mat)}


def _payload_matrix(rows, nvars, count: int | None, width) -> Matrix:
    """The matrix of a payload over Q(x_1..x_nvars): `count` rows (any number
    if None) of `width` entries each.

    The size (at most MAX_LINEAR_DIM), the shape and then nvars are checked
    before any entry is parsed.  nvars is refused outside
    0..max(MAX_CHART_DIM, width): every key of the ring has 16 * nvars bits,
    so a huge nvars stalls the first variable it meets.  Payloads of charts
    and of linear instances (nvars = n) stay inside.  A payload of signed
    literals is read straight into int rows; any other is read entry by
    entry through `scalar_from_str`.
    """
    if not isinstance(width, int) or isinstance(width, bool) or width < 1:
        raise ValueError(f"matrix size {_shown(width)} is not an integer >= 1")
    if width > MAX_LINEAR_DIM:
        raise ValueError(f"matrix size {width} exceeds the limit {MAX_LINEAR_DIM}")
    if (count is not None and len(rows) != count) or any(len(r) != width for r in rows):
        shape = f"{count}x{width}" if count is not None else f"rows of length {width}"
        raise ValueError(f"malformed matrix payload: expected {shape}")
    bound = max(MAX_CHART_DIM, width)
    if not isinstance(nvars, int) or isinstance(nvars, bool) or not 0 <= nvars <= bound:
        raise ValueError(f"nvars {_shown(nvars)} is outside 0..{bound}")
    literals = _literal_rows(rows)
    if literals is not None:
        return linalg.from_ratios(literals, nvars)
    return linalg.mat(
        [[scalar_from_str(str(a), nvars) for a in row] for row in rows]
    )


def _literal_rows(rows) -> list[list[tuple[int, int]]] | None:
    """Each entry as the (numerator, denominator) of its signed literal, or
    None once an entry is not one literal: that matrix is read through
    `scalar_from_str`, which raises the same errors in the same order."""
    out = []
    for row in rows:
        pairs = []
        for a in row:
            pair = literal_from_str(str(a))
            if pair is None:
                return None
            pairs.append(pair)
        out.append(pairs)
    return out


def skew_from_json(data: Mapping, cls: type = SkewBilinear) -> _SkewSharp:
    n = data["n"]
    return cls(_payload_matrix(data["rows"], data["nvars"], n, n))


def subspace_to_json(S: Subspace) -> dict:
    return {"ambient": S.ambient, "nvars": S.nvars, "rows": matrix_to_json(S.basis)}


def subspace_from_json(data: Mapping) -> Subspace:
    ambient = data["ambient"]
    return Subspace.from_spanning(
        ambient, _payload_matrix(data["rows"], data["nvars"], None, ambient)
    )
