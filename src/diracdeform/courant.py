"""Sections of TM + T*M on a chart: the split pairing and the Dorfman bracket.

A generalized section is a pair (X, alpha) of a vector field and a 1-form.
The Dorfman bracket is  [[(X, a), (Y, b)]] = ([X, Y], L_X b - iota_Y da)
with L_X the classical Cartan derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exterior import (
    Chart,
    ChartMismatchError,
    DegreeError,
    DifferentialForm,
    MultivectorField,
    contract,
    de_rham,
    lie_cartan,
    vf_commutator,
)
from .rational import Scalar
from . import linalg


@dataclass(frozen=True)
class GeneralizedSection:
    """A section (X, alpha) of the generalized tangent bundle on a chart."""

    X: MultivectorField
    alpha: DifferentialForm

    def __post_init__(self):
        if self.X.chart != self.alpha.chart:
            raise ChartMismatchError("components live on different charts")
        if self.X.degrees() - {1}:
            raise DegreeError("vector part must have degree 1")
        if self.alpha.degrees() - {1}:
            raise DegreeError("form part must have degree 1")

    @property
    def chart(self) -> Chart:
        return self.X.chart

    def __add__(self, other: "GeneralizedSection") -> "GeneralizedSection":
        return GeneralizedSection(self.X + other.X, self.alpha + other.alpha)

    def __neg__(self) -> "GeneralizedSection":
        return GeneralizedSection(-self.X, -self.alpha)

    def __sub__(self, other: "GeneralizedSection") -> "GeneralizedSection":
        return self + (-other)

    def scale(self, c) -> "GeneralizedSection":
        return GeneralizedSection(self.X.scale(c), self.alpha.scale(c))

    def is_zero(self) -> bool:
        return self.X.is_zero() and self.alpha.is_zero()

    def coordinates(self) -> tuple[Scalar, ...]:
        """The 2n Scalar components (vector part first)."""
        n = self.chart.dim
        return tuple(self.X.coefficient((i,)) for i in range(1, n + 1)) + tuple(
            self.alpha.coefficient((i,)) for i in range(1, n + 1)
        )


def section(X: MultivectorField | None,
            alpha: DifferentialForm | None) -> GeneralizedSection:
    """Build a section, allowing one part to be omitted (= zero)."""
    if X is None:
        X = MultivectorField.zero(alpha.chart)
    elif alpha is None:
        alpha = DifferentialForm.zero(X.chart)
    return GeneralizedSection(X, alpha)


def courant_pairing(s1: GeneralizedSection, s2: GeneralizedSection) -> Scalar:
    """<(X, a), (Y, b)> = a(Y) + b(X), a function on the chart."""
    if s1.chart != s2.chart:
        raise ChartMismatchError("sections live on different charts")
    t1 = contract(s2.X, s1.alpha).scalar_part()
    t2 = contract(s1.X, s2.alpha).scalar_part()
    return t1 + t2


def dorfman(s1: GeneralizedSection, s2: GeneralizedSection) -> GeneralizedSection:
    """The Dorfman bracket ([X, Y], L_X b - iota_Y da)."""
    if s1.chart != s2.chart:
        raise ChartMismatchError("sections live on different charts")
    X, a = s1.X, s1.alpha
    Y, b = s2.X, s2.alpha
    return GeneralizedSection(
        vf_commutator(X, Y), lie_cartan(X, b) - contract(Y, de_rham(a))
    )


# ---------------------------------------------------------------------------
# Frame-level tests
# ---------------------------------------------------------------------------


def frame_matrix(frame: Sequence[GeneralizedSection]) -> linalg.Matrix:
    """Coordinate matrix of a frame (rows are sections)."""
    return linalg.mat([s.coordinates() for s in frame])


def frame_pointwise_rank(frame: Sequence[GeneralizedSection],
                         point: Sequence) -> int:
    M = frame_matrix(frame)
    return linalg.rank(linalg.evaluate_matrix(M, [f for f in point]))


def in_frame_span(frame: Sequence[GeneralizedSection],
                  s: GeneralizedSection) -> bool:
    """Is s a Scalar-combination of the frame sections (over the function field)?"""
    return linalg.in_span(
        [sec.coordinates() for sec in frame], s.coordinates()
    )


def is_dirac_frame(frame: Sequence[GeneralizedSection]) -> bool:
    """Dirac test for the subbundle spanned by a rank-n frame.

    Checks pointwise rank n at the origin, vanishing of all pairwise
    pairings, and closure of the frame under the Dorfman bracket (membership
    solved exactly over the rational-function field).
    """
    if not frame:
        raise ValueError("empty frame")
    chart = frame[0].chart
    n = chart.dim
    if len(frame) != n:
        raise ValueError(f"a Dirac frame on R^{n} needs {n} sections")
    if frame_pointwise_rank(frame, [0] * n) != n:
        raise ValueError("frame is not a subbundle: rank drops at the origin")
    for i in range(n):
        for j in range(i, n):
            if not courant_pairing(frame[i], frame[j]).is_zero():
                return False
    for i in range(n):
        for j in range(i + 1, n):
            if not in_frame_span(frame, dorfman(frame[i], frame[j])):
                return False
    return True


def graph_of_form_frame(eta: DifferentialForm) -> list[GeneralizedSection]:
    """The frame (d_i, iota_{d_i} eta) of graph(eta)."""
    from .exterior import partial

    chart = eta.chart
    out = []
    for i in range(1, chart.dim + 1):
        di = partial(chart, i)
        out.append(GeneralizedSection(di, contract(di, eta)))
    return out


def tangent_frame(chart: Chart) -> list[GeneralizedSection]:
    """The frame (d_i, 0) of TM."""
    from .exterior import partial

    return [
        GeneralizedSection(partial(chart, i), DifferentialForm.zero(chart))
        for i in range(1, chart.dim + 1)
    ]
