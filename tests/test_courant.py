"""Generalized sections, the Dorfman bracket, and frame-level Dirac tests."""

import pytest

from diracdeform.courant import (
    GeneralizedSection,
    courant_pairing,
    dorfman,
    dorfman_form,
    frame_matrix,
    graph_of_form_frame,
    is_dirac_frame,
    section,
)
from diracdeform.exterior import (
    ChartMismatchError,
    DegreeError,
    DifferentialForm,
    MultivectorField,
    de_rham,
    dx,
    partial,
)
from diracdeform.koszul import KoszulContext
from diracdeform.linalg import mat, rank, vstack
from diracdeform.randgen import random_bivector_field, random_field, random_form


def tangent_frame(chart):
    """The frame (d_i, 0) of TM."""
    return [section(partial(chart, i), None) for i in range(1, chart.dim + 1)]


def test_section_validation(c2, c3):
    with pytest.raises(DegreeError):
        GeneralizedSection(partial(c2, 1, 2), DifferentialForm.zero(c2))
    with pytest.raises(ChartMismatchError):
        GeneralizedSection(partial(c2, 1), DifferentialForm.zero(c3))
    s = section(None, dx(c2, 1))
    assert s.X.is_zero()


def test_pairing(c2):
    s1 = section(partial(c2, 1), None)
    s2 = section(None, dx(c2, 1))
    assert courant_pairing(s1, s2).constant_value() == 1
    assert courant_pairing(s1, s1).is_zero()


def test_dorfman_worked(c2):
    # [[ (d1, 0), (d2, 0) ]] = 0
    assert dorfman(
        section(partial(c2, 1), None), section(partial(c2, 2), None)
    ).is_zero()
    # [[ (d1, 0), (0, x1 dx2) ]] = (0, dx2)
    got = dorfman(
        section(partial(c2, 1), None),
        section(None, DifferentialForm.make(c2, {(2,): "x1"})),
    )
    assert got.X.is_zero() and got.alpha == dx(c2, 2)
    # pure forms commute
    a = DifferentialForm.make(c2, {(1,): "x2"})
    b = DifferentialForm.make(c2, {(2,): "x1"})
    assert dorfman(section(None, a), section(None, b)).is_zero()


def test_dorfman_leibniz_identity(rng, c3):
    for _ in range(6):
        secs = [
            section(
                random_field(rng, c3, 1, 1, density=0.6, bound=4),
                random_form(rng, c3, 1, 1, density=0.6, bound=4),
            )
            for _ in range(3)
        ]
        s1, s2, s3 = secs
        lhs = dorfman(s1, dorfman(s2, s3))
        rhs = dorfman(dorfman(s1, s2), s3) + dorfman(s2, dorfman(s1, s3))
        assert (lhs - rhs).is_zero()


def _dorfman_form_reference(s1, s2):
    """L_X b - iota_Y da in coordinates:
    sum_i X_i d_i b_j + b_i d_j X_i - Y_i (d_i a_j - d_j a_i) at dx_j."""
    chart = s1.chart
    n = chart.dim
    X, a = s1.X.coefficient, s1.alpha.coefficient
    Y, b = s2.X.coefficient, s2.alpha.coefficient
    out = {}
    for j in range(1, n + 1):
        total = DifferentialForm.zero(chart).scalar_part()
        for i in range(1, n + 1):
            total = total + X((i,)) * b((j,)).derivative(i)
            total = total + b((i,)) * X((i,)).derivative(j)
            total = total - Y((i,)) * (a((j,)).derivative(i) - a((i,)).derivative(j))
        out[(j,)] = total
    return DifferentialForm.make(chart, out)


def test_dorfman_form_is_the_form_part(rng, c3, c4):
    for chart in (c3, c4):
        for _ in range(4):
            secs = [
                section(random_field(rng, chart, 1, 1, density=0.6, bound=4),
                        random_form(rng, chart, 1, 1, density=0.6, bound=4))
                for _ in range(2)
            ]
            # sections of graph(Z): (Z# xi, xi), as the Koszul brackets embed them
            ctx = KoszulContext(random_bivector_field(rng, chart))
            embedded = [ctx.embed(random_form(rng, chart, 1, 1, density=0.6, bound=4))
                        for _ in range(2)]
            for s1, s2 in (secs, embedded):
                got = dorfman_form(s1, s2)
                assert got == dorfman(s1, s2).alpha
                assert got == _dorfman_form_reference(s1, s2)
    with pytest.raises(ChartMismatchError):
        dorfman_form(section(partial(c3, 1), None), section(partial(c4, 1), None))


def test_is_dirac_worked(c2, c3, c4):
    assert is_dirac_frame(tangent_frame(c4))
    eta = DifferentialForm.make(c2, {(1, 2): "x1"})
    assert de_rham(eta).is_zero()
    assert is_dirac_frame(graph_of_form_frame(eta))
    eta_bad = DifferentialForm.make(c3, {(1, 3): "x2"})
    assert not de_rham(eta_bad).is_zero()
    assert not is_dirac_frame(graph_of_form_frame(eta_bad))


def test_is_dirac_guards(c2):
    with pytest.raises(ValueError):
        is_dirac_frame([section(partial(c2, 1), None)])  # wrong count
    degenerate = [
        section(MultivectorField.make(c2, {(1,): "x1"}), None),
        section(partial(c2, 2), None),
    ]
    with pytest.raises(ValueError):
        is_dirac_frame(degenerate)  # rank drops at origin


def test_in_frame_span(c2):
    M = frame_matrix(tangent_frame(c2))
    s = section(MultivectorField.make(c2, {(1,): "x2", (2,): 1}), None)
    assert rank(vstack(M, mat([s.coordinates()]))) == rank(M) == 2
    assert rank(vstack(M, mat([section(None, dx(c2, 1)).coordinates()]))) == 3
