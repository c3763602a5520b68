"""Generalized sections, the Dorfman bracket, and frame-level Dirac tests."""

import pytest

from diracdeform.courant import (
    GeneralizedSection,
    courant_pairing,
    dorfman,
    graph_of_form_frame,
    in_frame_span,
    is_dirac_frame,
    section,
    tangent_frame,
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
from diracdeform.randgen import random_field, random_form


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
    frame = tangent_frame(c2)
    s = section(MultivectorField.make(c2, {(1,): "x2", (2,): 1}), None)
    assert in_frame_span(frame, s)
    assert not in_frame_span(frame, section(None, dx(c2, 1)))
