"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (run with -s to
see them live).  All arithmetic checks are exact (zero tolerance); the only
floating comparison is the optional gradient cross-check at 1e-9 relative
tolerance inside the exterior suite.  Runtime targets are printed for
reference.  Criteria 01-09 are drivers over the registered suite checks: they
draw generator payloads (or take the bundled instances) and count the `pass`
outcomes of `suites.run_check`.
"""

import time
from contextlib import contextmanager
from itertools import count, islice

from diracdeform.dirac import rank_and_kernel, skew_from_json
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


# ---------------------------------------------------------------------------


def _draws(name: str, dim: int, seed: int, **fields):
    """The generator's payloads for `name` at trials 0, 1, 2, ...; `fields`
    are further `SuiteConfig` fields."""
    cfg = SuiteConfig(suite=name, dim=dim, seed=seed, **fields)
    for trial in count():
        yield CHECK_GENERATORS[name](derive_rng(seed, name, trial), cfg)


def _passes(name: str, payloads) -> list[str]:
    """Run every payload through the registered executor; the details of
    the passes."""
    outcomes = [run_check(name, payload) for payload in payloads]
    failed = [o.counterexample for o in outcomes if o.status == "fail"]
    assert not failed, failed[0]
    return [o.detail for o in outcomes if o.status == "pass"]


def test_criterion_01_exterior_axioms():
    with criterion(1, "<60s", "exterior axioms, 100 exact checks per identity"):
        for name in ("exterior.d_squared", "exterior.leibniz",
                     "exterior.schouten_symmetry", "exterior.operator_identity"):
            for n in (2, 3, 4, 5):
                draws = _draws(name, n, seed=1, max_coef_degree=4)
                assert len(_passes(name, islice(draws, 25))) == 25


def test_criterion_02_convention_consistency():
    name = "koszul.oneform_consistency"
    with criterion(2, "<30s", "Koszul bracket: definition == 1-form formula, "
                              "100 pairs + worked value"):
        assert len(_passes("koszul.worked_r2", [{}])) == 1
        for n, m in ((2, 34), (3, 33), (4, 33)):
            assert len(_passes(name, islice(_draws(name, n, seed=2), m))) == m


def test_criterion_03_linfty_jacobi():
    name = "linfty.jacobi"
    with criterion(3, "<5min", "generalized Jacobi, arities 1..5, 25 draws "
                               "per arity on R^4, coef degree <= 2"):
        details = []
        for arity in range(1, 6):
            payloads = (p for p in _draws(name, 4, seed=3, max_coef_degree=2)
                        if p["arity"] == arity)
            details += _passes(name, islice(payloads, 25))
        assert len(details) == 125
        assert any(d.endswith("([Z,Z] != 0)") for d in details)


def test_criterion_04_parametrization_theorem():
    name = "linalg.theorem_rank"
    with criterion(4, "<60s", "constant-rank parametrization: 200 rank-2 "
                              "instances (n=4) + 50 rank-4 (n=6) + worked"):
        assert len(_passes("linalg.worked_examples", [{}])) == 1
        assert len(_passes(name, islice(_draws(name, 4, seed=4), 200))) == 200
        rank4 = (p for p in _draws(name, 6, seed=4) if p["k"] == 4)
        assert len(_passes(name, islice(rank4, 50))) == 50


def test_criterion_05_lemma_battery():
    name = "linalg.lemma_battery"
    with criterion(5, "<60s", "transverse-complement lemmas: 120 instances "
                              "(n=4) + 15 with rank-4 eta (n=6)"):
        assert len(_passes(name, islice(_draws(name, 4, seed=5), 120))) == 120
        rank4 = (p for p in _draws(name, 6, seed=5)
                 if rank_and_kernel(skew_from_json(p["eta"]))[0] == 4)
        assert len(_passes(name, islice(rank4, 15))) == 15


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
        assert len(_passes("presym.preservation", payloads)) == 4
        assert len(_passes("presym.sect35_negative", [{}])) == 1


def test_criterion_08_main_theorem():
    with criterion(8, "<5min", "MC iff pre-symplectic of rank k, end to end "
                               "on families F1 and F2 (lambda_3 active)"):
        bundle = _deform_bundle_cached()
        assert len(_passes("presym.family_deform", bundle)) == len(bundle)
        assert len(_passes("presym.lambda3_active", [{}])) == 1


def test_criterion_09_dirac_restatements():
    with criterion(9, "<2min", "is_dirac(graph(eta)) iff closed and "
                               "is_dirac(Phi_Z(beta)) iff MC, 20 each"):
        for name in ("dirac.graph_closedness", "dirac.phiz_mc"):
            assert len(_passes(name, islice(_draws(name, 3, seed=9), 20))) == 20


def test_criterion_10_determinism():
    with criterion(10, "trivial", "same seed => identical reports "
                                  "(timestamps segregated)"):
        for suite in ("koszul", "dirac"):
            cfg = SuiteConfig(suite=suite, trials=2, seed=123)
            r1 = assemble_report("suite", suite, cfg.to_json(), run_suite(cfg))
            r2 = assemble_report("suite", suite, cfg.to_json(), run_suite(cfg))
            assert comparable(r1) == comparable(r2)
