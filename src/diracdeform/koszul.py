"""The Koszul bracket, the trinary bracket, and the L-infinity[1] brackets
lambda_1, lambda_2, lambda_3 on shifted forms, together with the
Maurer-Cartan residual and the symbolic graph map F.

The mu_k variant realizes the same structure through Dirac geometry for the
pair (TM, graph(Z)): mu_1 is the de Rham differential of the Lie algebroid
TM, mu_2 extends the projected Dorfman bracket of graph(Z) by Leibniz, and
mu_3 contracts against the trivector psi built from Dorfman brackets.  The
two constructions are related by mu_1 = lambda_1, mu_2 = -lambda_2,
mu_3 = lambda_3, which the test suite verifies on independent code paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .courant import GeneralizedSection, dorfman
from . import dirac
from .dirac import Bivector, SkewBilinear, NotInIZError, i_z_determinant
from .exterior import (
    Chart,
    ChartMismatchError,
    DegreeError,
    DifferentialForm,
    MultivectorField,
    contract,
    de_rham,
    lie_derivative,
    multi_sharp,
    schouten,
    vanishes_at,
    wedge,
)
from .rational import Point, Poly, Scalar
from .report import DEFAULT_GRID


class ArityError(ValueError):
    pass


@dataclass(frozen=True)
class ShiftedForm:
    """A homogeneous form viewed in Omega(R^n)[2]; degree bookkeeping only."""

    form: DifferentialForm

    def __post_init__(self):
        if not self.form.is_homogeneous():
            raise DegreeError("shifted forms must be homogeneous")

    @property
    def form_degree(self) -> int:
        return self.form.degree()

    @property
    def shifted_degree(self) -> int:
        return self.form.degree() - 2

    def __add__(self, other: "ShiftedForm") -> "ShiftedForm":
        return ShiftedForm(self.form + other.form)

    def __neg__(self) -> "ShiftedForm":
        return ShiftedForm(-self.form)

    def scale(self, c) -> "ShiftedForm":
        return ShiftedForm(self.form.scale(c))

    def is_zero(self) -> bool:
        return self.form.is_zero()


class KoszulContext:
    """A bivector field Z with its sharp map, and the values derived from Z
    that a check reads more than once: the half Schouten square, computed on
    first read, and L_Z of each form it has been applied to.  Both caches
    live exactly as long as the context."""

    __slots__ = ("chart", "Z", "bivector", "_sharp_basis", "_half_schouten", "_lie")

    def __init__(self, Z: MultivectorField):
        if Z.degrees() - {2}:
            raise DegreeError("Z must be a bivector field")
        self.chart = Z.chart
        self.Z = Z
        self._half_schouten = None
        self._lie: dict[DifferentialForm, DifferentialForm] = {}
        self.bivector = field_to_bivector(Z)
        n = self.chart.dim
        self._sharp_basis = []
        for j in range(n):
            col = {}
            for i in range(n):
                c = self.bivector.mat[i][j]
                if not c.is_zero():
                    col[(i + 1,)] = c
            self._sharp_basis.append(MultivectorField.make(self.chart, col))

    @property
    def half_schouten(self) -> MultivectorField:
        """Half of [Z, Z]."""
        if self._half_schouten is None:
            self._half_schouten = schouten(self.Z, self.Z).scale(Fraction(1, 2))
        return self._half_schouten

    def is_poisson(self) -> bool:
        return self.half_schouten.is_zero()

    def sharp(self, xi: DifferentialForm) -> MultivectorField:
        """Z#(xi) for a 1-form xi."""
        if xi.degrees() - {1}:
            raise DegreeError("sharp expects a 1-form")
        out = MultivectorField.zero(self.chart)
        for (i,), c in xi.terms.items():
            out = out + self._sharp_basis[i - 1].scale(c)
        return out

    def embed(self, xi: DifferentialForm) -> GeneralizedSection:
        """The section (Z# xi, xi) of graph(Z) corresponding to xi in L* = T*M."""
        return GeneralizedSection(self.sharp(xi), xi)


# ---------------------------------------------------------------------------
# Conversions between forms/fields and skew sharp matrices
# ---------------------------------------------------------------------------


def _to_skew(elem, cls: type, what: str):
    """The skew matrix of kind cls housing the degree-2 element elem."""
    if elem.degrees() - {2}:
        raise DegreeError(f"expected {what}")
    n = elem.chart.dim
    return cls.from_pairs(
        n, n, {(i - 1, j - 1): c for (i, j), c in elem.terms.items()}
    )


def _from_skew(S, chart: Chart, cls: type):
    """The degree-2 element of kind cls on chart with the skew matrix S."""
    if S.n != chart.dim:
        raise ChartMismatchError("matrix size does not match chart")
    terms = {}
    for i in range(S.n):
        for j in range(i + 1, S.n):
            c = S.value(i, j)
            if not c.is_zero():
                terms[(i + 1, j + 1)] = c
    return cls.make(chart, terms)


def form_to_skew(beta: DifferentialForm) -> SkewBilinear:
    return _to_skew(beta, SkewBilinear, "a 2-form")


def skew_to_form(S: SkewBilinear, chart: Chart) -> DifferentialForm:
    return _from_skew(S, chart, DifferentialForm)


def field_to_bivector(Z: MultivectorField) -> Bivector:
    return _to_skew(Z, Bivector, "a bivector field")


def bivector_to_field(W: Bivector, chart: Chart) -> MultivectorField:
    return _from_skew(W, chart, MultivectorField)


# ---------------------------------------------------------------------------
# Brackets
# ---------------------------------------------------------------------------


def lie_by_bivector(ctx: KoszulContext, alpha: DifferentialForm) -> DifferentialForm:
    """L_Z = iota_Z d - d iota_Z, computed once per (context, form)."""
    out = ctx._lie.get(alpha)
    if out is None:
        out = ctx._lie[alpha] = lie_derivative(ctx.Z, alpha)
    return out


def koszul_bracket(
    alpha: DifferentialForm, beta: DifferentialForm, ctx: KoszulContext
) -> DifferentialForm:
    """The Koszul bracket of homogeneous forms,
    (-1)^(|a|+1) ( L_Z(a^b) - L_Z(a)^b - (-1)^|a| a^L_Z(b) ).
    """
    if not (alpha.is_homogeneous() and beta.is_homogeneous()):
        raise DegreeError("koszul_bracket expects homogeneous forms")
    if alpha.chart != ctx.chart or beta.chart != ctx.chart:
        raise ChartMismatchError("operands live on different charts")
    a = alpha.degree()
    t = lie_by_bivector(ctx, wedge(alpha, beta)) - wedge(
        lie_by_bivector(ctx, alpha), beta
    )
    u = wedge(alpha, lie_by_bivector(ctx, beta))
    t = t - u if a % 2 == 0 else t + u
    return t if (a + 1) % 2 == 0 else -t


def koszul_bracket_oneform(
    alpha: DifferentialForm, beta: DifferentialForm, ctx: KoszulContext
) -> DifferentialForm:
    """Independent route for 1-forms:
    L_{Z# a} b - L_{Z# b} a - d<Z, a^b>  (classical Lie derivatives).
    """
    from .exterior import lie_cartan

    if alpha.degrees() - {1} or beta.degrees() - {1}:
        raise DegreeError("the 1-form formula needs 1-forms")
    za = ctx.sharp(alpha)
    zb = ctx.sharp(beta)
    pz = multi_sharp([alpha, beta], ctx.Z)
    return lie_cartan(za, beta) - lie_cartan(zb, alpha) - de_rham(pz)


def trinary_bracket(
    alpha: DifferentialForm,
    beta: DifferentialForm,
    gamma: DifferentialForm,
    ctx: KoszulContext,
) -> DifferentialForm:
    """[a, b, c]_Z = (a# ^ b# ^ c#)(half of [Z, Z])."""
    for x in (alpha, beta, gamma):
        if not x.is_homogeneous():
            raise DegreeError("trinary_bracket expects homogeneous forms")
    return multi_sharp([alpha, beta, gamma], ctx.half_schouten)


# ---------------------------------------------------------------------------
# The lambda multibrackets on Omega[2]
# ---------------------------------------------------------------------------


def lam(k: int, inputs: Sequence[ShiftedForm], ctx: KoszulContext) -> ShiftedForm:
    """lambda_k on shifted forms; arity k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ArityError(f"lambda arity {k} not in 1..3")
    if len(inputs) != k:
        raise ArityError(f"lambda_{k} got {len(inputs)} inputs")
    if k == 1:
        return ShiftedForm(de_rham(inputs[0].form))
    if k == 2:
        a, b = inputs
        br = koszul_bracket(a.form, b.form, ctx)
        return ShiftedForm(br if a.form_degree % 2 == 0 else -br)
    a, b, c = inputs
    tri = trinary_bracket(a.form, b.form, c.form, ctx)
    return ShiftedForm(tri if (b.form_degree + 1) % 2 == 0 else -tri)


# ---------------------------------------------------------------------------
# The mu multibrackets via Dirac geometry (independent code path)
# ---------------------------------------------------------------------------


def lstar_bracket(
    alpha: DifferentialForm, beta: DifferentialForm, ctx: KoszulContext
) -> DifferentialForm:
    """The bracket of the almost Lie algebroid graph(Z) = L*, extended to
    all of Omega by the Leibniz rule.

    Base cases come from the Dorfman bracket of embedded sections and from
    the anchor xi -> Z# xi; higher degrees peel one 1-form factor at a time:
        [a, b ^ c] = [a, b] ^ c + (-1)^((|a|-1)|b|) b ^ [a, c].
    """
    if not (alpha.is_homogeneous() and beta.is_homogeneous()):
        raise DegreeError("lstar_bracket expects homogeneous forms")
    chart = ctx.chart
    out = DifferentialForm.zero(chart)
    for I, f in alpha.terms.items():
        for J, g in beta.terms.items():
            out = out + _lstar_term(chart, ctx, I, f, J, g)
    return out


def _lstar_term(chart, ctx, I, f, J, g) -> DifferentialForm:
    p, q = len(I), len(J)
    if p == 0 and q == 0:
        return DifferentialForm.zero(chart)
    if q >= 2:
        # peel b = (g dx_{j1}) ^ dx_{rest}
        b1 = DifferentialForm.make(chart, {(J[0],): g})
        rest = DifferentialForm.make(chart, {J[1:]: 1})
        left = wedge(_lstar_term(chart, ctx, I, f, (J[0],), g), rest)
        right = wedge(b1, _lstar_term(chart, ctx, I, f, J[1:], Scalar.one(chart.dim)))
        if ((p - 1) * 1) % 2:
            right = -right
        return left + right
    if p >= 2:
        sign = -((-1) ** ((p - 1) * (q - 1)))
        res = _lstar_term(chart, ctx, J, g, I, f)
        return res.scale(sign)
    # base cases with p, q <= 1
    if p == 1 and q == 1:
        s1 = ctx.embed(DifferentialForm.make(chart, {(I[0],): f}))
        s2 = ctx.embed(DifferentialForm.make(chart, {(J[0],): g}))
        return dorfman(s1, s2).alpha
    if p == 1 and q == 0:
        xi = DifferentialForm.make(chart, {(I[0],): f})
        anchor = ctx.sharp(xi)
        return contract(anchor, de_rham(DifferentialForm.make(chart, {(): g})))
    if p == 0 and q == 1:
        return -_lstar_term(chart, ctx, J, g, I, f)
    raise AssertionError("unreachable")


def psi_structure_values(ctx: KoszulContext):
    """The raw cubic structure function of the pair (TM, graph(Z)):
    psi(xi1, xi2, xi3) = < pr_TM [[ r(xi1), r(xi2) ]], r(xi3) >,
    where r embeds 1-forms into graph(Z) and pr_TM projects along graph(Z).

    Yields ((i, j, k), value) over basis triples i < j < k; arbitrary slot
    values can be recomputed by callers to test multilinearity/alternation.
    """
    chart = ctx.chart
    n = chart.dim
    basis = [DifferentialForm.make(chart, {(i,): 1}) for i in range(1, n + 1)]
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        yield (i, j, k), psi_value(ctx, basis[i - 1], basis[j - 1], basis[k - 1])


def psi_value(
    ctx: KoszulContext,
    xi1: DifferentialForm,
    xi2: DifferentialForm,
    xi3: DifferentialForm,
) -> Scalar:
    """One slot evaluation of the cubic structure function (1-form arguments)."""
    s = dorfman(ctx.embed(xi1), ctx.embed(xi2))
    pr_l = s.X - ctx.sharp(s.alpha)  # projection to TM along graph(Z)
    return contract(pr_l, xi3).scalar_part()


def psi_from_dorfman(ctx: KoszulContext) -> MultivectorField:
    """The trivector psi representing the cubic structure function.

    The alternating map (i, j, k) -> psi_value is converted to a trivector
    with the graded-symbol evaluation convention, which differs from the
    determinant pairing used by `multi_sharp` by (-1)^(k(k-1)/2) = -1 in
    degree 3.  With this identification psi equals -1/2 [Z, Z] exactly.
    """
    chart = ctx.chart
    terms = {}
    for (i, j, k), val in psi_structure_values(ctx):
        if not val.is_zero():
            terms[(i, j, k)] = -val
    return MultivectorField.make(chart, terms)


def mu(k: int, inputs: Sequence[ShiftedForm], ctx: KoszulContext,
       psi: MultivectorField | None = None) -> ShiftedForm:
    """mu_k of the Dirac pair (TM, graph(Z)); arity k in {1, 2, 3}.

    Implemented through the Dorfman bracket so that the relations
    mu_1 = lambda_1, mu_2 = -lambda_2, mu_3 = lambda_3 are genuine checks.
    """
    if k not in (1, 2, 3):
        raise ArityError(f"mu arity {k} not in 1..3")
    if len(inputs) != k:
        raise ArityError(f"mu_{k} got {len(inputs)} inputs")
    if k == 1:
        return ShiftedForm(de_rham(inputs[0].form))
    if k == 2:
        a, b = inputs
        br = lstar_bracket(a.form, b.form, ctx)
        return ShiftedForm(-br if a.form_degree % 2 == 0 else br)
    a, b, c = inputs
    if psi is None:
        psi = psi_from_dorfman(ctx)
    ms = multi_sharp([a.form, b.form, c.form], psi)
    return ShiftedForm(ms if b.form_degree % 2 == 0 else -ms)


# ---------------------------------------------------------------------------
# Maurer-Cartan machinery
# ---------------------------------------------------------------------------


def mc_residual(beta: DifferentialForm, ctx: KoszulContext) -> DifferentialForm:
    """d(beta) + 1/2 lambda_2(beta, beta) + 1/6 lambda_3(beta, beta, beta),
    for a homogeneous 2-form beta; beta is Maurer-Cartan iff this vanishes.
    """
    if beta.degrees() - {2}:
        raise DegreeError("Maurer-Cartan elements are 2-forms")
    s = ShiftedForm(beta)
    total = lam(1, [s], ctx).form
    total = total + lam(2, [s, s], ctx).form.scale(Fraction(1, 2))
    total = total + lam(3, [s, s, s], ctx).form.scale(Fraction(1, 6))
    return total


def F_symbolic(beta: DifferentialForm, ctx: KoszulContext) -> SkewBilinear:
    """The graph map F of `dirac.F` over the function field Q(x):
    F(beta)# = beta# (id + Z# beta#)^{-1} with Z = ctx.Z.

    Raises NotInIZError when id + Z# beta# is singular over Q(x), i.e. when
    det(id + Z# beta#) is identically zero (generically singular input).
    """
    return dirac.F(form_to_skew(beta), ctx.bivector)


def F_symbolic_form(beta: DifferentialForm, ctx: KoszulContext) -> DifferentialForm:
    return skew_to_form(F_symbolic(beta, ctx), ctx.chart)


DEFAULT_GRID_COORDS = tuple(Fraction(c) for c in DEFAULT_GRID)


def grid_points(n: int, coords: Sequence[Fraction], avoid: Sequence[Poly]):
    """The deterministic grid coords^n of the pointwise checks, in order.

    Yields (point, Point) for each grid point at which no polynomial in
    `avoid` vanishes (a pole or a zero that the caller skips).
    """
    for point in itertools.product(coords, repeat=n):
        pt = Point(point)
        if not any(p.vanishes_at(pt) for p in avoid):
            yield point, pt


def mc_equivalence_report(
    beta: DifferentialForm,
    ctx: KoszulContext,
    grid_coords: Sequence[Fraction] = DEFAULT_GRID_COORDS,
) -> dict:
    """Check `mc_residual(beta) = 0  iff  d(F(beta)) = 0` on I_Z.

    Symbolic when det(id + Z# beta#) is a nonzero constant; otherwise both
    sides are compared at every grid point avoiding the determinant's zero
    set.  Returns a report dict with the verdict and the mode used.
    """
    B = form_to_skew(beta)
    det = i_z_determinant(B, ctx.bivector)
    if det.is_zero():
        raise NotInIZError("det(id + Z# beta#) is identically zero")
    residual = mc_residual(beta, ctx)
    df = de_rham(F_symbolic_form(beta, ctx))
    report = {
        "det": det,
        "mc": residual.is_zero(),
        "closed": df.is_zero(),
    }
    if det.is_constant():
        report["mode"] = "symbolic"
        report["equivalent"] = report["mc"] == report["closed"]
        report["points_checked"] = None
        return report
    report["mode"] = "grid"
    checked = 0
    ok = True
    # skip the poles and the zeros of the determinant
    for _, pt in grid_points(ctx.chart.dim, grid_coords, (det.den, det.num)):
        checked += 1
        if vanishes_at(residual, pt) != vanishes_at(df, pt):
            ok = False
            break
    report["equivalent"] = ok and (report["mc"] == report["closed"])
    report["points_checked"] = checked
    return report


# ---------------------------------------------------------------------------
# Generalized Jacobi identities
# ---------------------------------------------------------------------------


def unshuffles(i: int, n: int):
    """All (i, n-i)-unshuffles as permutations of range(n)."""
    for S in itertools.combinations(range(n), i):
        rest = [a for a in range(n) if a not in S]
        yield list(S) + rest


def koszul_sign(perm: Sequence[int], shifted_degrees: Sequence[int]) -> int:
    """Sign for reordering graded symbols x_0 x_1 ... into x_{perm(0)} ...,
    in the symmetric (L-infinity[1]) convention: only odd-odd swaps count.
    """
    s = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                if (shifted_degrees[perm[a]] % 2) and (shifted_degrees[perm[b]] % 2):
                    s = -s
    return s


def jacobi_residual(
    inputs: Sequence[ShiftedForm], ctx: KoszulContext
) -> DifferentialForm:
    """The arity-n generalized Jacobi sum
        sum_{i+j=n+1} sum_{(i,n-i)-unshuffles} eps(sigma)
            lambda_j( lambda_i(x_{s(1)}..x_{s(i)}), x_{s(i+1)}.., x_{s(n)} )
    which vanishes identically for the Koszul multibrackets.
    """
    n = len(inputs)
    sdegs = [x.shifted_degree for x in inputs]
    total = DifferentialForm.zero(ctx.chart)
    for i in range(1, min(3, n) + 1):
        j = n + 1 - i
        if j < 1 or j > 3:
            continue
        for perm in unshuffles(i, n):
            eps = koszul_sign(perm, sdegs)
            inner = lam(i, [inputs[p] for p in perm[:i]], ctx)
            if inner.is_zero():
                continue
            outer = lam(j, [inner] + [inputs[p] for p in perm[i:]], ctx)
            total = total + (outer.form if eps > 0 else -outer.form)
    return total
