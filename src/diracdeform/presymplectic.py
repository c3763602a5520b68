"""Pre-symplectic structures on R^n charts: constant-rank certification,
kernel distributions, horizontality, Dirac-side restatements, and the
end-to-end deformation pipeline
    beta  ->  (Maurer-Cartan?)  vs  (eta + F(beta) pre-symplectic of rank k?).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .courant import GeneralizedSection, courant_pairing, dorfman, section
from .dirac import NonHorizontalError, Z_from_frame
from .exterior import (
    Chart,
    ChartMismatchError,
    DegreeError,
    DifferentialForm,
    MultivectorField,
    contract,
    de_rham,
    field_from_json,
    form_from_json,
    partial,
    to_json,
    wedge_all,
)
from .koszul import (
    DEFAULT_GRID_COORDS,
    KoszulContext,
    ShiftedForm,
    bivector_to_field,
    form_to_skew,
    lam,
    mc_residual,
    F_symbolic_form,
    grid_points,
)
from .rational import (
    Scalar,
    rational_from_str,
    scalar_is_definite,
    scalar_is_polefree,
)
from . import linalg


class CannotCertifyError(ValueError):
    """The 2-form is outside the certified constant-rank class."""


class NotClosedError(ValueError):
    pass


class FrameError(ValueError):
    """A distribution frame is degenerate or has singular denominators."""


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionFrame:
    """A frame of vector fields spanning a distribution of fixed rank.

    Pointwise independence is certified at the reference point.
    """

    chart: Chart
    sections: tuple[MultivectorField, ...]
    ref_point: tuple[Fraction, ...]

    def __post_init__(self):
        for v in self.sections:
            if v.chart != self.chart:
                raise ChartMismatchError("frame section on the wrong chart")
            if v.degrees() - {1}:
                raise DegreeError("frame sections must be vector fields")
        if self.sections:
            M = self.coordinate_matrix()
            Mp = linalg.evaluate_matrix(M, list(self.ref_point))
            if linalg.rank(Mp) != len(self.sections):
                raise FrameError(
                    "frame sections are dependent at the reference point"
                )

    @property
    def rank(self) -> int:
        return len(self.sections)

    def coordinate_matrix(self) -> linalg.Matrix:
        """Rows are the coordinate vectors of the sections."""
        n = self.chart.dim
        return linalg.mat(
            [
                tuple(v.coefficient((i,)) for i in range(1, n + 1))
                for v in self.sections
            ]
        )

    @cached_property
    def annihilator(self) -> tuple[DifferentialForm, ...]:
        """The generators of `annihilator_forms`, computed once per frame."""
        return tuple(annihilator_forms(self))

    @cached_property
    def _wedges(self) -> dict[int, tuple[MultivectorField, ...]]:
        return {}

    def wedges(self, p: int) -> tuple[MultivectorField, ...]:
        """`wedge_all` of each p-subset of the sections, in `combinations`
        order; computed once per frame and p."""
        out = self._wedges.get(p)
        if out is None:
            out = self._wedges[p] = tuple(
                wedge_all(list(combo))
                for combo in itertools.combinations(self.sections, p)
            )
        return out


def frame_from_vectors(chart: Chart, rows: Sequence[Sequence[Scalar]],
                       ref_point: Sequence[Fraction]) -> DistributionFrame:
    sections = []
    for row in rows:
        terms = {(i + 1,): c for i, c in enumerate(row) if not c.is_zero()}
        sections.append(MultivectorField.make(chart, terms))
    return DistributionFrame(chart, tuple(sections), tuple(ref_point))


def constant_frame_from_rational_vectors(
    chart: Chart, rows: Sequence[Sequence[Fraction]], ref_point
) -> DistributionFrame:
    scal = [
        [Scalar.const(chart.dim, v) for v in row] for row in rows
    ]
    return frame_from_vectors(chart, scal, ref_point)


# ---------------------------------------------------------------------------
# Constant-rank certification by Pfaffians
# ---------------------------------------------------------------------------


def coefficient_matrix(eta: DifferentialForm) -> linalg.Matrix:
    """The skew matrix of bilinear values eta(e_i, e_j)."""
    if eta.degrees() - {2}:
        raise DegreeError("expected a 2-form")
    return form_to_skew(eta).values()


def _pfaffian_scan(M: linalg.Matrix, top: int | None = None) -> tuple[int, dict]:
    """The generic rank k of a skew matrix and its nonzero k-Pfaffians.

    Scans the principal Pfaffians of the denominator-cleared matrix from size
    `top` (default: the largest even size) down and stops at the first size
    with a nonzero one.  A nonzero 2s-Pfaffian forces a nonzero
    (2s-2)-Pfaffian, so a scan from `top` returns the generic rank when it is
    at most `top`, and `top` when it is larger.  Returns
    (k, {subset: Pfaffian of M on that subset}); the dict is empty when M is
    zero.
    """
    n = len(M)
    top = n if top is None else min(top, n)
    rows, D = linalg.clear_matrix(M)
    for m in range(top // 2, 0, -1):
        pfs = {}
        for S in itertools.combinations(range(n), 2 * m):
            pf = linalg.pfaffian_poly(rows, S)
            if not pf.is_zero():
                pfs[S] = Scalar(pf, D.pow(m))
        if pfs:
            return 2 * m, pfs
    return 0, {}


def certify_constant_rank(eta: DifferentialForm) -> tuple[int, dict]:
    """Certify that eta# has the same even rank k at every point of R^n.

    Certificate: every (k+2)-Pfaffian of the coefficient matrix vanishes
    identically, and some k-Pfaffian is a nonzero constant (rule "constant")
    or matches the positive-pattern real-definiteness certificate (rule
    "definite-pattern").  Failure means the input is outside the certified
    class, not that it has non-constant rank.
    """
    n = eta.chart.dim
    k, pfs = _pfaffian_scan(coefficient_matrix(eta))
    if k == 0:
        return 0, {"witness": (), "rule": "constant", "pfaffian": Scalar.one(n)}
    for S, value in pfs.items():
        if value.is_constant():
            return k, {"witness": S, "rule": "constant", "pfaffian": value}
    for S, value in pfs.items():
        if scalar_is_definite(value):
            return k, {"witness": S, "rule": "definite-pattern", "pfaffian": value}
    raise CannotCertifyError(
        f"generic rank {k}, but no {k}-Pfaffian witness is certifiably "
        "nonvanishing on all of Q^n"
    )


# ---------------------------------------------------------------------------
# Kernel distribution and horizontality
# ---------------------------------------------------------------------------


def kernel_distribution(
    eta: DifferentialForm, ref_point: Sequence[Fraction] | None = None
) -> DistributionFrame:
    """Frame of ker(eta#) over the Scalar field.

    Rejects instances whose kernel frame has denominators that may vanish at
    rational points (the frame must be globally defined on the chart).
    Verifies iota_v eta = 0 exactly and frame involutivity.
    """
    chart = eta.chart
    n = chart.dim
    point = tuple(Fraction(x) for x in (ref_point or [0] * n))
    basis = _kernel_rows(eta)
    for v in basis:
        for c in v:
            if not scalar_is_polefree(c):
                raise FrameError(
                    "kernel frame has a denominator without a nonvanishing "
                    "certificate; instance rejected"
                )
    frame = frame_from_vectors(chart, basis, point)
    for v in frame.sections:
        if not contract(v, eta).is_zero():
            raise AssertionError("kernel frame fails iota_v eta = 0")
    if not frame_is_involutive(frame):
        raise AssertionError("kernel frame of a closed form must be involutive")
    return frame


def _kernel_rows(form: DifferentialForm) -> list[linalg.Vector]:
    """A basis of ker(form#)."""
    return linalg.nullspace(form_to_skew(form).mat)


def frame_is_involutive(frame: DistributionFrame) -> bool:
    from .exterior import vf_commutator

    rows = frame.coordinate_matrix()
    for a in range(len(frame.sections)):
        for b in range(a + 1, len(frame.sections)):
            w = vf_commutator(frame.sections[a], frame.sections[b])
            wrow = tuple(
                w.coefficient((i,)) for i in range(1, frame.chart.dim + 1)
            )
            if not linalg.in_span(rows, wrow):
                return False
    return True


def is_horizontal(alpha: DifferentialForm, K: DistributionFrame) -> bool:
    """True iff all full contractions against tuples of K-frame sections vanish.

    Degree-0 parts are horizontal only when zero (the restriction map is the
    identity on functions).
    """
    if alpha.chart != K.chart:
        raise ChartMismatchError("operands live on different charts")
    if alpha.is_zero():
        return True
    for p in sorted(alpha.degrees()):
        part = alpha.part(p)
        if p == 0:
            if not part.is_zero():
                return False
            continue
        if p > K.rank:
            continue
        for W in K.wedges(p):
            if not contract(W, part).is_zero():
                return False
    return True


def annihilator_forms(K: DistributionFrame) -> list[DifferentialForm]:
    """A spanning set of annihilator 1-forms (the horizontal-ideal generators).

    Denominators are cleared row by row so the generators are polynomial,
    hence defined on the whole chart.
    """
    chart = K.chart
    n = chart.dim
    if K.rank == 0:
        return [DifferentialForm.make(chart, {(i,): 1}) for i in range(1, n + 1)]
    xi_rows = linalg.nullspace(K.coordinate_matrix())
    if not xi_rows:
        return []
    cleared, _ = linalg.clear_rows(linalg.mat(xi_rows))
    out = []
    for row in cleared:
        terms = {
            (i + 1,): Scalar.from_poly(p) for i, p in enumerate(row) if not p.is_zero()
        }
        out.append(DifferentialForm.make(chart, terms))
    return out


# ---------------------------------------------------------------------------
# Pre-symplectic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreSymplecticData:
    """A certified pre-symplectic structure with chosen complement.

    Invariants (enforced by `build_presymplectic`): eta is closed, its rank
    is certified constant equal to k, the K-frame spans ker(eta#) with
    iota_v eta = 0 exactly, K + G is a frame of the whole tangent space, and
    Z# = -(eta|_G#)^{-1} over the Scalar field.
    """

    chart: Chart
    eta: DifferentialForm
    k: int
    K: DistributionFrame
    G: DistributionFrame
    Z: MultivectorField
    certificate: dict
    ref_point: tuple[Fraction, ...]

    def context(self) -> KoszulContext:
        """The Koszul context of Z, built once per instance."""
        return self._context

    @cached_property
    def _context(self) -> KoszulContext:
        return KoszulContext(self.Z)


def build_presymplectic(
    eta: DifferentialForm,
    G: DistributionFrame | None = None,
    ref_point: Sequence[Fraction] | None = None,
) -> PreSymplecticData:
    """Certify and assemble the full pre-symplectic bundle (eta, k, K, G, Z)."""
    chart = eta.chart
    n = chart.dim
    point = tuple(Fraction(x) for x in (ref_point or [0] * n))
    if eta.degrees() - {2}:
        raise DegreeError("a pre-symplectic structure is a 2-form")
    if not de_rham(eta).is_zero():
        raise NotClosedError("eta is not closed")
    k, certificate = certify_constant_rank(eta)
    K = kernel_distribution(eta, point)
    if G is None:
        G = _default_complement_frame(K, point)
    if K.rank + G.rank != n:
        raise FrameError(f"K rank {K.rank} + G rank {G.rank} != {n}")
    combined = linalg.mat(
        list(K.coordinate_matrix()) + list(G.coordinate_matrix())
    ) if K.rank else G.coordinate_matrix()
    d = linalg.det(combined)
    if not scalar_is_definite(d):
        raise FrameError(
            "K + G is not certifiably a frame on all of Q^n "
            "(determinant lacks a nonvanishing certificate)"
        )
    Z = bivector_to_field(
        Z_from_frame(form_to_skew(eta), G.coordinate_matrix()), chart
    )
    return PreSymplecticData(
        chart=chart,
        eta=eta,
        k=k,
        K=K,
        G=G,
        Z=Z,
        certificate=certificate,
        ref_point=point,
    )


def _default_complement_frame(
    K: DistributionFrame, point: tuple[Fraction, ...]
) -> DistributionFrame:
    """Constant frame: orthogonal complement of K evaluated at the reference point."""
    chart = K.chart
    n = chart.dim
    if K.rank == 0:
        rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return constant_frame_from_rational_vectors(chart, rows, point)
    Mp = linalg.evaluate_matrix(K.coordinate_matrix(), list(point))
    comp = linalg.nullspace(Mp)
    rows = [[c.constant_value() for c in v] for v in comp]
    return constant_frame_from_rational_vectors(chart, rows, point)


# ---------------------------------------------------------------------------
# Horizontality preservation (the subalgebroid + pairing conditions)
# ---------------------------------------------------------------------------


def horizontal_preservation_conditions(
    K: DistributionFrame, ctx: KoszulContext
) -> tuple[bool, bool]:
    """The two conditions under which the multibrackets preserve the
    horizontal complex, for the pair (TM, graph(Z)):

    1. the K-frame is involutive (K is a Lie subalgebroid of TM),
    2. <[[xi1, xi2]], K + K°> = 0 for annihilator 1-forms xi, embedded into
       graph(Z) as (Z# xi, xi).
    """
    if K.chart != ctx.chart:
        raise ChartMismatchError("frame and context on different charts")
    involutive = frame_is_involutive(K)
    embedded = [ctx.embed(xi) for xi in K.annihilator]
    k_sections = [section(v, None) for v in K.sections]
    pairing_ok = True
    for a in range(len(embedded)):
        for b in range(len(embedded)):
            if a == b:
                continue
            br = dorfman(embedded[a], embedded[b])
            for t in k_sections + embedded:
                if not courant_pairing(br, t).is_zero():
                    pairing_ok = False
                    break
            if not pairing_ok:
                break
        if not pairing_ok:
            break
    return involutive, pairing_ok


def horizontality_witness_search(
    K: DistributionFrame, ctx: KoszulContext
) -> DifferentialForm | None:
    """Search a fixed family of horizontal inputs for one that some
    multibracket maps outside the horizontal complex.

    Family: annihilator 1-forms times coordinate monomials of degree <= 2.
    Returns the offending output (a non-horizontal form) or None.
    """
    chart = ctx.chart
    n = chart.dim
    monomials = [Scalar.one(n)]
    for d in (1, 2):
        for combo in itertools.combinations_with_replacement(range(1, n + 1), d):
            s = Scalar.one(n)
            for i in combo:
                s = s * Scalar.variable(i, n)
            monomials.append(s)
    family = [xi.scale(m) for xi in K.annihilator for m in monomials]
    for x in family:
        out = de_rham(x)
        if not is_horizontal(out, K):
            return out
    for x, y in itertools.combinations(family, 2):
        out = lam(2, [ShiftedForm(x), ShiftedForm(y)], ctx).form
        if not is_horizontal(out, K):
            return out
    if not ctx.is_poisson():
        for combo in itertools.combinations(family, 3):
            out = lam(3, [ShiftedForm(f) for f in combo], ctx).form
            if not is_horizontal(out, K):
                return out
    return None


def koszul_preserves_horizontal(
    data: PreSymplecticData, rng, trials: int = 8
) -> dict:
    """Randomized check that lambda_1..3 map horizontal forms to horizontal forms."""
    from .randgen import random_horizontal_form

    ctx = data.context()
    report = {"lambda1": True, "lambda2": True, "lambda3": True, "trials": trials}
    for _ in range(trials):
        degs = [rng.choice([1, 2, 3]) for _ in range(3)]
        xs = []
        for d in degs:
            h = random_horizontal_form(rng, data.K, d)
            if not is_horizontal(h, data.K):
                raise AssertionError("generator produced non-horizontal form")
            xs.append(ShiftedForm(h))
        if not is_horizontal(lam(1, xs[:1], ctx).form, data.K):
            report["lambda1"] = False
        if not is_horizontal(lam(2, xs[:2], ctx).form, data.K):
            report["lambda2"] = False
        if not is_horizontal(lam(3, xs, ctx).form, data.K):
            report["lambda3"] = False
    report["all"] = report["lambda1"] and report["lambda2"] and report["lambda3"]
    return report


# ---------------------------------------------------------------------------
# Dirac-side frames
# ---------------------------------------------------------------------------


def phi_z_frame(beta: DifferentialForm, ctx: KoszulContext) -> list[GeneralizedSection]:
    """The frame (d_i + Z#(iota_{d_i} beta), iota_{d_i} beta) of Phi_Z(beta)."""
    chart = ctx.chart
    out = []
    for i in range(1, chart.dim + 1):
        di = partial(chart, i)
        xi = contract(di, beta)
        out.append(GeneralizedSection(di + ctx.sharp(xi), xi))
    return out


# ---------------------------------------------------------------------------
# The deformation pipeline
# ---------------------------------------------------------------------------


def constant_rank_report(
    form: DifferentialForm, k: int,
    grid_coords: Sequence[Fraction] = DEFAULT_GRID_COORDS,
) -> dict:
    """Does the 2-form have constant rank k on the whole chart?

    The generic rank is read exactly from the Pfaffian scan that
    `certify_constant_rank` uses, started at size k + 2: whether the rank
    exceeds k is settled there.  When it is k, a definite k-Pfaffian
    certifies rank k everywhere; otherwise a rational-grid fallback checks
    the lower bound.
    """
    generic, pfs = _pfaffian_scan(coefficient_matrix(form), k + 2)
    if generic > k:
        return {"rank_k": False, "mode": "exact", "reason": "rank exceeds k"}
    if generic < k:
        return {"rank_k": False, "mode": "exact", "reason": "generic rank below k"}
    if k == 0:
        return {"rank_k": True, "mode": "exact"}
    for S, value in pfs.items():
        if scalar_is_definite(value):
            return {"rank_k": True, "mode": "exact", "witness": S}
    # grid fallback: every (k+2)-Pfaffian vanishes identically, so off the
    # poles the rank is k exactly where the numerator of some k-Pfaffian
    # does not vanish (its denominator divides a power of the poles' lcm).
    checked = 0
    poles = {c.den for c in form.terms.values()}
    for point, pt in grid_points(form.chart.dim, grid_coords, poles):
        checked += 1
        if all(pf.num.vanishes_at(pt) for pf in pfs.values()):
            return {
                "rank_k": False,
                "mode": "grid",
                "points": checked,
                "reason": f"rank drop at {point}",
            }
    return {"rank_k": True, "mode": "grid", "points": checked}


def deform(data: PreSymplecticData, beta: DifferentialForm,
           grid_coords: Sequence[Fraction] = DEFAULT_GRID_COORDS) -> dict:
    """Run the full equivalence pipeline for a horizontal deformation input.

    Returns a report with the Maurer-Cartan verdict, closedness and
    constant-rank of exp_eta(beta) = eta + F(beta), kernel transversality
    to G, and the biconditional  MC  iff  (closed and rank k).
    """
    chart = data.chart
    if beta.chart != chart:
        raise ChartMismatchError("beta lives on the wrong chart")
    if beta.degrees() - {2}:
        raise DegreeError("deformation inputs are 2-forms")
    if not is_horizontal(beta, data.K):
        raise NonHorizontalError("beta is not horizontal for ker(eta#)")
    ctx = data.context()
    residual = mc_residual(beta, ctx)
    mc = residual.is_zero()
    f_form = F_symbolic_form(beta, ctx)  # raises NotInIZError if degenerate
    exp_form = data.eta + f_form
    closed = de_rham(exp_form).is_zero()
    rank_rep = constant_rank_report(exp_form, data.k, grid_coords)
    transverse_rep = _kernel_transversality(exp_form, data, grid_coords)
    report = {
        "mc": mc,
        "closed": closed,
        "rank_k": rank_rep["rank_k"],
        "rank_mode": rank_rep["mode"],
        "kernel_transverse": transverse_rep["transverse"],
        "biconditional": mc == (closed and rank_rep["rank_k"]),
    }
    if not mc:
        report["residual"] = residual
    return report


def _kernel_transversality(
    exp_form: DifferentialForm, data: PreSymplecticData,
    grid_coords: Sequence[Fraction],
) -> dict:
    """Is ker(exp_eta(beta)#) transverse to G (as subbundles over the chart)?"""
    n = data.chart.dim
    kernel_rows = _kernel_rows(exp_form)
    if len(kernel_rows) != n - data.k:
        return {"transverse": False, "reason": "kernel of unexpected generic rank"}
    combined = linalg.mat(list(kernel_rows) + list(data.G.coordinate_matrix()))
    d = linalg.det(combined)
    if d.is_zero():
        return {"transverse": False, "reason": "kernel meets G generically"}
    if scalar_is_definite(d):
        return {"transverse": True, "mode": "exact"}
    checked = 0
    for point, pt in grid_points(n, grid_coords, (d.den,)):
        if d.num.vanishes_at(pt):
            return {"transverse": False, "reason": f"kernel meets G at {point}"}
        checked += 1
    return {"transverse": True, "mode": "grid", "points": checked}


# ---------------------------------------------------------------------------
# Instance files
#   { "chart": n, "eta": form-JSON, "G": [vf-JSON] (optional),
#     "ref_point": [rationals] (optional) }
# ---------------------------------------------------------------------------


def instance_to_json(data: PreSymplecticData) -> dict:
    out = {
        "chart": data.chart.dim,
        "eta": to_json(data.eta),
        "G": [to_json(v) for v in data.G.sections],
        "ref_point": [str(x) for x in data.ref_point],
    }
    return out


def instance_from_json(payload: Mapping) -> PreSymplecticData:
    try:
        n = int(payload["chart"])
        chart = Chart(n)
        eta = form_from_json(payload["eta"])
        if eta.chart != chart:
            raise ValueError("eta chart does not match instance chart")
        ref = payload.get("ref_point")
        point = [rational_from_str(x) for x in ref] if ref else [Fraction(0)] * n
        G = None
        if payload.get("G") is not None:
            sections = [field_from_json(item) for item in payload["G"]]
            G = DistributionFrame(chart, tuple(sections), tuple(point))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed pre-symplectic instance: {exc}") from exc
    return build_presymplectic(eta, G, point)
