"""Corpus-replay differential oracle.

Hypothesis draws small random operands; the verifier's own traffic has
structure those draws rarely reach (Pfaffian factors, quotient-rule
denominators, high-degree common factors).  This test records the operands
and results of the exact-arithmetic primitives during one deterministic
reduced pass of the `mc`, `presymplectic` and `dirac` suites (seed 0, one
trial) and checks every k-th recorded call against sympy.

Recording reuses the benchmark tracer's patcher (`bench/tracing.py`), which
reaches every `from .x import y` copy of a traced function; `Poly.derivative`
and `Poly.vanishes_at` (the grid's zero test) are not traced there, so they
are patched on the class.  Operands are read
through `poly_to_str` and parsed here, so the oracle depends on no internal
representation.
"""

import functools
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import diracdeform.report  # noqa: F401  (the tracer patches every module)
import diracdeform.suites  # noqa: F401
from diracdeform.rational import Poly, Scalar, poly_to_str
from diracdeform.report import SuiteConfig
from diracdeform.suites import run_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import NAMES, Tracer  # noqa: E402

# traced name -> keep every k-th recorded call (by call index)
STRIDE = {
    "rational.poly_mul": 7,
    "rational.poly_divexact": 3,
    "rational.poly_gcd": 1,
    "rational.poly_evaluate": 5,
    "linalg.rref": 1,
    "linalg.det": 1,
    "derivative": 2,
    "vanishes_at": 5,
}
SUITES = ("mc", "presymplectic", "dirac")
MAX_VARS = 12
GENS = sympy.symbols(f"x1:{MAX_VARS + 1}")
_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


class _Recorder(Tracer):
    """A tracer that logs (args, result, exception) of the strided names."""

    def __init__(self):
        super().__init__()
        self.log = {name: [] for name in STRIDE}

    def _wrap(self, idx, fn, classify=False):
        return _recording(fn, self.log.get(NAMES[idx]))


def _recording(fn, log):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if log is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        except (ValueError, ZeroDivisionError) as exc:
            log.append((args, None, exc))
            raise
        log.append((args, result, None))
        return result

    return wrapper


@pytest.fixture(scope="module")
def recorded():
    recorder = _Recorder()
    mp = pytest.MonkeyPatch()
    for name in ("derivative", "vanishes_at"):
        mp.setattr(Poly, name, _recording(getattr(Poly, name), recorder.log[name]))
    try:
        with recorder:
            for suite in SUITES:
                outcomes = run_suite(SuiteConfig(suite=suite, trials=1, seed=0))
                assert all(o.status != "fail" for o in outcomes), suite
    finally:
        mp.undo()
    return recorder.log


def _poly_dict(p: Poly) -> dict:
    """{exponent tuple: Rational} read from the printed form of p."""
    out = {}
    text = poly_to_str(p)
    if text == "0":
        return out
    for sign, body in _TERM.findall(text):
        coef = sympy.Integer(-1 if sign == "-" else 1)
        exps = [0] * p.nvars
        for factor in body.strip().split("*"):
            if factor.startswith("x"):
                var, _, k = factor[1:].partition("^")
                exps[int(var) - 1] += int(k or 1)
            else:
                coef *= sympy.Rational(factor)
        out[tuple(exps)] = coef
    return out


def _sym(p: Poly) -> sympy.Poly:
    gens = GENS[:max(p.nvars, 1)]
    terms = _poly_dict(p)
    if p.nvars == 0:
        terms = {(0,): c for c in terms.values()}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens,
                                domain=sympy.QQ)


def _expr(s: Scalar):
    return _sym(s.num).as_expr() / _sym(s.den).as_expr()


def _matrix(A) -> sympy.Matrix:
    return sympy.Matrix([[_expr(a) for a in row] for row in A])


def _kept(log: list, name: str) -> list:
    kept = log[::STRIDE[name]]
    assert kept, f"no {name} call recorded"
    return kept


def test_recorded_pass_covers_every_primitive(recorded):
    for name in STRIDE:
        assert recorded[name], name


def test_products_match_sympy(recorded):
    for (a, b), r, _ in _kept(recorded["rational.poly_mul"], "rational.poly_mul"):
        assert _sym(a) * _sym(b) == _sym(r)


def test_exact_quotients_match_sympy(recorded):
    for (f, g), q, exc in _kept(recorded["rational.poly_divexact"],
                                "rational.poly_divexact"):
        quo, rem = sympy.div(_sym(f), _sym(g))
        if exc is None:
            assert rem.is_zero and quo == _sym(q)
        else:
            # a failed trial division: g really does not divide f
            assert isinstance(exc, ValueError) and not rem.is_zero


def test_gcds_match_sympy_up_to_a_unit(recorded):
    for (f, g), h, _ in _kept(recorded["rational.poly_gcd"], "rational.poly_gcd"):
        theirs = sympy.gcd(_sym(f), _sym(g))
        mine = _sym(h)
        assert not mine.is_zero or theirs.is_zero
        if not mine.is_zero:
            assert mine.monic() == theirs.monic()


def test_derivatives_match_sympy(recorded):
    for (p, i), d, _ in _kept(recorded["derivative"], "derivative"):
        assert _sym(p).diff(GENS[i - 1]) == _sym(d)


def test_substitutions_match_sympy(recorded):
    for (p, point), v, _ in _kept(recorded["rational.poly_evaluate"],
                                  "rational.poly_evaluate"):
        subs = {GENS[i]: sympy.Rational(str(Fraction(c)))
                for i, c in enumerate(point)}
        want = _sym(p).as_expr().subs(subs) if p.nvars else _sym(p).as_expr()
        assert want == sympy.Rational(v.numerator, v.denominator)


def test_zero_tests_match_sympy(recorded):
    # The reduced pass meets no zero value at a grid point (a vanishing
    # residual has no coefficients to test); the hypothesis tests in
    # test_rational.py and test_exterior.py reach zeros and poles.
    for (p, point), vanishes, _ in _kept(recorded["vanishes_at"], "vanishes_at"):
        subs = {GENS[i]: sympy.Rational(str(Fraction(c)))
                for i, c in enumerate(point)}
        value = _sym(p).as_expr().subs(subs) if p.nvars else _sym(p).as_expr()
        assert vanishes == (value == 0)


def test_rref_matches_sympy(recorded):
    for (A,), (R, pivots), _ in _kept(recorded["linalg.rref"], "linalg.rref"):
        if not A or not A[0]:
            continue
        want, want_pivots = _matrix(A).rref(simplify=sympy.cancel)
        assert tuple(pivots) == tuple(want_pivots)
        assert (_matrix(R) - want).applyfunc(sympy.cancel).is_zero_matrix


def test_det_matches_sympy(recorded):
    for (A,), d, _ in _kept(recorded["linalg.det"], "linalg.det"):
        want = _matrix(A).det(method="berkowitz") if A else sympy.Integer(1)
        assert sympy.cancel(_expr(d) - want) == 0
