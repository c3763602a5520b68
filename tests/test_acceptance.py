"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (run with -s to
see them live).  All arithmetic checks are exact (zero tolerance); the only
floating comparison is the optional gradient cross-check at 1e-9 relative
tolerance inside the exterior suite.  Runtime targets are printed for
reference.  Criteria 04-09 are drivers over the registered suite checks: they
draw generator payloads (or take the bundled instances) and count the `pass`
outcomes of `suites.run_check`.
"""

import random
import time
from contextlib import contextmanager
from itertools import count, islice

from diracdeform.dirac import rank_and_kernel, skew_from_json
from diracdeform.exterior import (
    Chart,
    MultivectorField,
    contract,
    de_rham,
    dx,
    schouten,
    wedge,
)
from diracdeform.koszul import (
    KoszulContext,
    ShiftedForm,
    jacobi_residual,
    koszul_bracket,
    koszul_bracket_oneform,
)
from diracdeform.randgen import random_field, random_form
from diracdeform.report import SuiteConfig, assemble_report, comparable
from diracdeform.suites import (
    CHECK_GENERATORS,
    _deform_bundle_cached,
    _mc_bundle_cached,
    derive_rng,
    family_f1,
    family_f2,
    run_check,
    run_suite,
)


@contextmanager
def criterion(number: int, target: str, description: str):
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        dt = time.perf_counter() - t0
        verdict = "FAIL" if failed else "PASS"
        print(
            f"[criterion {number:2d}] {verdict} in {dt:6.1f}s "
            f"(target {target}): {description}"
        )


def seeded(tag: str) -> random.Random:
    return random.Random(f"acceptance:{tag}")


# ---------------------------------------------------------------------------


def test_criterion_01_exterior_axioms():
    rng = seeded("c1")
    with criterion(1, "<60s", "exterior axioms, 100 exact checks per identity"):
        charts = [Chart(n) for n in (2, 3, 4, 5)]
        for i in range(100):
            chart = charts[i % 4]
            n = chart.dim
            alpha = random_form(rng, chart, rng.randint(0, min(3, n)), 4)
            assert de_rham(de_rham(alpha)).is_zero()
        for i in range(100):
            chart = charts[i % 4]
            n = chart.dim
            p = rng.randint(0, min(3, n))
            a = random_form(rng, chart, p, 4)
            b = random_form(rng, chart, rng.randint(0, min(3, n)), 4)
            assert de_rham(wedge(a, b)) == wedge(de_rham(a), b) + wedge(
                a, de_rham(b)
            ).scale((-1) ** p)
        for i in range(100):
            chart = charts[i % 4]
            n = chart.dim
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            P = random_field(rng, chart, min(p, n), 4)
            Q = random_field(rng, chart, min(q, n), 4)
            lhs = schouten(P, Q)
            rhs = schouten(Q, P).scale(
                (-1) ** ((min(p, n) - 1) * (min(q, n) - 1))
            )
            assert (lhs + rhs).is_zero()
        for i in range(100):
            chart = charts[i % 4]
            n = chart.dim
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            P = random_field(rng, chart, p, 4)
            Q = random_field(rng, chart, q, 4)
            lo = min(max(p + q - 1, 0), n)
            alpha = random_form(rng, chart, rng.randint(lo, n), 4)

            def lie_gc(W, wdeg, f):
                t = contract(W, de_rham(f))
                u = de_rham(contract(W, f))
                return t - u if wdeg % 2 == 0 else t + u

            lhs = contract(schouten(P, Q), alpha)
            rhs = lie_gc(P, p, contract(Q, alpha)) - contract(
                Q, lie_gc(P, p, alpha)
            ).scale((-1) ** (q * (p - 1)))
            assert lhs == rhs


def test_criterion_02_convention_consistency():
    rng = seeded("c2")
    with criterion(2, "<30s", "Koszul bracket: definition == 1-form formula, "
                              "100 pairs + worked value"):
        c2 = Chart(2)
        ctx = KoszulContext(MultivectorField.make(c2, {(1, 2): "x1"}))
        assert koszul_bracket(dx(c2, 1), dx(c2, 2), ctx) == dx(c2, 1)
        assert koszul_bracket_oneform(dx(c2, 1), dx(c2, 2), ctx) == dx(c2, 1)
        charts = [Chart(n) for n in (2, 3, 4)]
        for i in range(100):
            chart = charts[i % 3]
            ctx = KoszulContext(random_field(rng, chart, 2, 2, density=0.8))
            a = random_form(rng, chart, 1, 2, density=0.8)
            b = random_form(rng, chart, 1, 2, density=0.8)
            assert koszul_bracket(a, b, ctx) == koszul_bracket_oneform(a, b, ctx)


def test_criterion_03_linfty_jacobi():
    rng = seeded("c3")
    with criterion(3, "<5min", "generalized Jacobi, arities 1..5, 25 draws "
                               "per arity on R^4, coef degree <= 2"):
        c4 = Chart(4)
        nonpoisson_draws = 0
        for arity in range(1, 6):
            for i in range(25):
                if i == 0:
                    Z = MultivectorField.make(c4, {(1, 2): 1, (3, 4): "x1"})
                else:
                    Z = random_field(rng, c4, 2, 2, density=0.6, bound=4)
                ctx = KoszulContext(Z)
                if not ctx.is_poisson():
                    nonpoisson_draws += 1
                xs = [
                    ShiftedForm(random_form(rng, c4, rng.randint(1, 3), 2))
                    for _ in range(arity)
                ]
                assert jacobi_residual(xs, ctx).is_zero()
        assert nonpoisson_draws >= 1


def _draws(name: str, dim: int, seed: int):
    """The generator's payloads for `name` at trials 0, 1, 2, ..."""
    cfg = SuiteConfig(suite=name, dim=dim, seed=seed)
    for trial in count():
        yield CHECK_GENERATORS[name](derive_rng(seed, name, trial), cfg)


def _passes(name: str, payloads) -> int:
    """Run every payload through the registered executor; count the passes."""
    outcomes = [run_check(name, payload) for payload in payloads]
    failed = [o.counterexample for o in outcomes if o.status == "fail"]
    assert not failed, failed[0]
    return sum(o.status == "pass" for o in outcomes)


def test_criterion_04_parametrization_theorem():
    name = "linalg.theorem_rank"
    with criterion(4, "<60s", "constant-rank parametrization: 200 rank-2 "
                              "instances (n=4) + 50 rank-4 (n=6) + worked"):
        assert _passes("linalg.worked_examples", [{}]) == 1
        assert _passes(name, islice(_draws(name, 4, seed=4), 200)) == 200
        rank4 = (p for p in _draws(name, 6, seed=4) if p["k"] == 4)
        assert _passes(name, islice(rank4, 50)) == 50


def test_criterion_05_lemma_battery():
    name = "linalg.lemma_battery"
    with criterion(5, "<60s", "transverse-complement lemmas: 120 instances "
                              "(n=4) + 15 with rank-4 eta (n=6)"):
        assert _passes(name, islice(_draws(name, 4, seed=5), 120)) == 120
        rank4 = (p for p in _draws(name, 6, seed=5)
                 if rank_and_kernel(skew_from_json(p["eta"]))[0] == 4)
        assert _passes(name, islice(rank4, 15)) == 15


def test_criterion_06_mc_equivalence():
    with criterion(6, "<2min", "MC residual == 0 iff d F(beta) == 0 on all "
                               "bundled instances (symbolic + grid)"):
        bundle = _mc_bundle_cached()
        assert len(bundle) >= 6
        outcomes = [run_check("mc.equivalence", item) for item in bundle]
        assert [o.status for o in outcomes].count("pass") == len(bundle)
        modes = {o.detail.split(";")[0] for o in outcomes}
        assert modes == {"mode=symbolic", "mode=grid"}


def test_criterion_07_horizontality_preservation():
    with criterion(7, "<2min", "Koszul brackets preserve horizontality on "
                               "F1/F2; engineered negatives yield witnesses"):
        # each payload runs 4 bracket trials, so 8 per family
        payloads = [{"instance": family(), "seed": seed}
                    for family in (family_f1, family_f2) for seed in (0, 1)]
        assert _passes("presym.preservation", payloads) == 4
        assert _passes("presym.sect35_negative", [{}]) == 1


def test_criterion_08_main_theorem():
    with criterion(8, "<5min", "MC iff pre-symplectic of rank k, end to end "
                               "on families F1 and F2 (lambda_3 active)"):
        bundle = _deform_bundle_cached()
        assert _passes("presym.family_deform", bundle) == len(bundle)
        assert _passes("presym.lambda3_active", [{}]) == 1


def test_criterion_09_dirac_restatements():
    with criterion(9, "<2min", "is_dirac(graph(eta)) iff closed and "
                               "is_dirac(Phi_Z(beta)) iff MC, 20 each"):
        for name in ("dirac.graph_closedness", "dirac.phiz_mc"):
            assert _passes(name, islice(_draws(name, 3, seed=9), 20)) == 20


def test_criterion_10_determinism():
    with criterion(10, "trivial", "same seed => identical reports "
                                  "(timestamps segregated)"):
        for suite in ("koszul", "dirac"):
            cfg = SuiteConfig(suite=suite, trials=2, seed=123)
            r1 = assemble_report("suite", suite, cfg.to_json(), run_suite(cfg))
            r2 = assemble_report("suite", suite, cfg.to_json(), run_suite(cfg))
            assert comparable(r1) == comparable(r2)
