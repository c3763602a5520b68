"""The CLI harness: determinism, replayability, exit codes, and schemas."""

import ast
import hashlib
import json
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracdeform.cli import generate_payload, main, run_instance_payload
from diracdeform.exterior import MAX_CHART_DIM
from diracdeform.rational import MAX_EXPONENT, MAX_TERMS, Poly, poly_from_str
from diracdeform.report import SuiteConfig, assemble_report, comparable
from diracdeform.suites import (
    CHECK_EXECUTORS,
    CHECK_GENERATORS,
    SUITES,
    _suite_workload,
    derive_rng,
    run_check,
    run_replay,
    run_suite,
)


def report_for(suite, trials=2, seed=3, **kw):
    cfg = SuiteConfig(suite=suite, trials=trials, seed=seed, **kw)
    return assemble_report("suite", suite, cfg.to_json(), run_suite(cfg))


# -- determinism ----------------------------------------------------------------


@pytest.mark.parametrize("suite", ["koszul", "linalg", "dirac"])
def test_same_seed_identical_reports(suite):
    r1 = report_for(suite)
    r2 = report_for(suite)
    assert comparable(r1) == comparable(r2)
    # wall times are segregated: stripping them is what makes this equality hold
    assert "generated_at" not in comparable(r1)


def test_different_seeds_differ():
    w1 = _suite_workload(SuiteConfig(suite="linalg", trials=2, seed=1))
    w2 = _suite_workload(SuiteConfig(suite="linalg", trials=2, seed=2))
    assert [p for _, p in w1] != [p for _, p in w2]
    # the derived rngs really are decoupled per (seed, check, trial)
    a = derive_rng(1, "x", 0).random()
    b = derive_rng(1, "x", 1).random()
    c = derive_rng(2, "x", 0).random()
    assert len({a, b, c}) == 3


def test_all_suites_green():
    for suite in ("exterior", "koszul", "linf-jacobi", "linalg", "mc",
                  "presymplectic", "dirac"):
        rep = report_for(suite, trials=2, seed=11)
        assert rep["summary"]["fail"] == 0, (suite, rep["checks"])


# -- replay -----------------------------------------------------------------------


def test_failure_counterexample_replays():
    # engineer a failing payload: a Jacobi "identity" fed inconsistent data
    # (claim d(d(x1 dx2)) != 0 is impossible, so instead corrupt a worked check
    # by replaying with tampered inputs for a data-driven executor)
    from diracdeform.exterior import Chart, DifferentialForm, to_json

    c3 = Chart(3)
    payload = {
        "a": to_json(DifferentialForm.make(c3, {(1,): "x2"})),
        "b": to_json(DifferentialForm.make(c3, {(2,): "x3"})),
        "p": 0,  # wrong homogeneous degree: the Leibniz identity check must fail
    }
    out = run_check("exterior.leibniz", payload)
    assert out.status == "fail"
    assert out.counterexample == {"replay": "exterior.leibniz", "data": payload}
    again = run_replay(out.counterexample)
    assert again.status == "fail"
    assert again.name == out.name


def test_executor_exception_is_a_replayable_failure(monkeypatch, tmp_path, capsys):
    def broken(payload):
        raise RuntimeError("representation bug")

    monkeypatch.setitem(CHECK_EXECUTORS, "dirac.phiz_mc", broken)
    outcomes = run_suite(SuiteConfig(suite="dirac", trials=2, seed=0))
    # the suite runs to the end: the other check still passes
    assert [(o.name, o.status) for o in outcomes] == [
        ("dirac.graph_closedness", "pass"), ("dirac.graph_closedness", "pass"),
        ("dirac.phiz_mc", "fail"), ("dirac.phiz_mc", "fail"),
    ]
    failed = outcomes[2]
    assert failed.detail == "RuntimeError: representation bug"
    assert failed.counterexample["replay"] == "dirac.phiz_mc"
    p = tmp_path / "replay.json"
    p.write_text(json.dumps(failed.counterexample))
    assert main(["run", str(p)]) == 1
    assert "RuntimeError: representation bug" in capsys.readouterr().out


def test_run_check_lets_interrupts_through(monkeypatch):
    def interrupted(payload):
        raise KeyboardInterrupt

    monkeypatch.setitem(CHECK_EXECUTORS, "dirac.phiz_mc", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_check("dirac.phiz_mc", {})


def test_replay_unknown_check():
    with pytest.raises(ValueError):
        run_replay({"replay": "no.such.check", "data": {}})
    # a name JSON cannot hash is unknown too, not a TypeError
    with pytest.raises(ValueError, match="unknown check name"):
        run_replay({"replay": ["linalg.f_properties"], "data": {}})


def test_replay_malformed_data():
    with pytest.raises(ValueError, match="linalg.lemma_battery"):
        run_replay({"replay": "linalg.lemma_battery", "data": {}})
    with pytest.raises(ValueError, match="presym.family_deform"):
        run_replay({"replay": "presym.family_deform", "data": []})


def test_instance_stream_pinned():
    # the benchmark corpus is drawn from this stream: a generator change
    # that alters any payload must show up here
    work = _suite_workload(SuiteConfig(suite="all", trials=2, seed=0))
    digest = hashlib.sha256(json.dumps(work, sort_keys=True).encode()).hexdigest()
    assert len(work) == 60
    assert digest == STREAM_SHA256_ALL_T2_S0


STREAM_SHA256_ALL_T2_S0 = (
    "a0d0d0b8370dac751d28f2c04a609bc962a104c36e68d10b4300955e75546742"
)


def test_report_pinned():
    # a refactor that claims "same results" must leave every status, detail,
    # witness and counterexample of this report unchanged
    cfg = SuiteConfig(suite="all", trials=2, seed=0)
    report = comparable(assemble_report("suite", "all", cfg.to_json(), run_suite(cfg)))
    text = json.dumps(report, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256_ALL_T2_S0


REPORT_SHA256_ALL_T2_S0 = (
    "c41814d7762de9f5fa07549b1fbf5b53db842378c42c993b3d84bfaa5cf1d4b7"
)


def test_grid_reaches_every_grid_using_payload():
    # the executors of these checks read the payload's grid (`suites._grid`)
    cfg = SuiteConfig(suite="all", seed=0, grid_coords=("2", "5"))
    for name in ("mc.equivalence", "presym.family_deform"):
        for trial in range(20):
            payload = CHECK_GENERATORS[name](derive_rng(0, name, trial), cfg)
            assert payload["grid"] == ["2", "5"], (name, trial)


def test_every_function_has_a_caller():
    """Every function, class and method defined in the package is named at
    least once besides its definition in the package, tests or benchmark.
    Dunders and the generators and executors the suite registry calls are
    exempt."""
    root = Path(__file__).resolve().parent.parent
    files = [p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py")]
    text = "\n".join(p.read_text() for p in files)
    words = Counter(re.findall(r"\w+", text))
    defined = set()
    for p in (root / "src" / "diracdeform").glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
    exempt = re.compile(r"__\w+__|_gen_\w+|_run_\w+")
    uncalled = sorted(
        name for name in defined if not exempt.fullmatch(name) and words[name] < 2
    )
    assert not uncalled, f"defined but never named elsewhere: {uncalled}"


def test_every_random_check_has_generator_and_executor():
    listed = {name for names in SUITES.values() for name in names}
    assert listed <= set(CHECK_EXECUTORS)
    # every generator belongs to a listed check; the eight checks without one
    # are the fixed worked examples, run once on {}
    assert set(CHECK_GENERATORS) <= listed
    assert len(listed - set(CHECK_GENERATORS)) == 8


# -- instance files --------------------------------------------------------------------


def test_linear_instance_run(tmp_path):
    # the 2x2 family instance, run through the lemma battery
    payload = {
        "n": 2,
        "eta": [["0", "-1"], ["1", "0"]],
        "beta": [["0", "-1/2"], ["1/2", "0"]],
    }
    label, outcomes = run_instance_payload(payload)
    assert label == "linear(n=2)"
    assert [(o.name, o.status) for o in outcomes] == [
        ("linalg.lemma_battery", "pass")
    ]


def test_presymplectic_instance_run(c4):
    from diracdeform.exterior import DifferentialForm, form_from_json, to_json
    from diracdeform.koszul import mc_residual
    from diracdeform.presymplectic import build_presymplectic

    eta = DifferentialForm.make(c4, {(1, 2): 1})
    beta = DifferentialForm.make(c4, {(1, 3): "x4"})
    payload = {"chart": 4, "eta": to_json(eta), "beta": to_json(beta)}
    label, outcomes = run_instance_payload(payload)
    assert [(o.name, o.status) for o in outcomes] == [
        ("presym.build", "pass"),
        ("dirac.graph_closedness", "pass"),
        ("presym.family_deform", "pass"),
    ]
    # beta is not Maurer-Cartan: its residual is attached as a witness
    assert form_from_json(outcomes[2].witness) == mc_residual(
        beta, build_presymplectic(eta).context()
    )


def test_uncertifiable_instance_skips(c4):
    from diracdeform.exterior import DifferentialForm, to_json

    eta = DifferentialForm.make(c4, {(1, 2): "x1"})
    payload = {"chart": 4, "eta": to_json(eta)}
    label, outcomes = run_instance_payload(payload)
    assert outcomes[0].name == "presym.build"
    assert outcomes[0].status == "skipped"
    assert "cannot-certify" in outcomes[0].detail


def test_unrecognized_schema():
    with pytest.raises(ValueError):
        run_instance_payload({"bogus": 1})


# -- CLI ------------------------------------------------------------------------------------


def test_cli_verify_and_report(tmp_path, monkeypatch):
    monkeypatch.setenv("DIRACDEFORM_REPORT_DIR", str(tmp_path))
    code = main(["verify", "koszul", "--trials", "1", "--seed", "5",
                 "--report", "r.json", "--quiet"])
    assert code == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["suite"] == "koszul"
    assert data["summary"]["fail"] == 0


def test_cli_unknown_suite():
    assert main(["verify", "nonexistent-suite", "--quiet"]) == 2


def test_cli_verify_ends_with_the_slowest_checks(tmp_path, capsys):
    path = tmp_path / "mc.json"
    assert main(["verify", "mc", "--trials", "2", "--report", str(path)]) == 0
    last = capsys.readouterr().out.rstrip("\n").splitlines()[-1]
    checks = json.loads(path.read_text())["checks"]
    ranked = sorted(range(len(checks)), key=lambda i: -checks[i]["wall_ms"])[:3]
    assert len(ranked) == 3
    assert last == "slowest: " + ", ".join(
        f"#{i + 1} {checks[i]['name']} {checks[i]['wall_ms']:.1f} ms" for i in ranked)
    # --quiet keeps only the summary line
    assert main(["verify", "mc", "--trials", "1", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "slowest" not in out and out.startswith("suite mc:")


@pytest.mark.parametrize("suite", ["linalg", "mc"])
@pytest.mark.parametrize("grid", ["1/0", "0,x1"])
def test_cli_verify_bad_grid(suite, grid, capsys):
    # the grid is read when the config is built, whether or not a check uses it
    assert main(["verify", suite, "--trials", "1", "--grid", grid, "--quiet"]) == 2
    assert "grid coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [MAX_CHART_DIM + 1, 100000])
def test_cli_oversized_chart_exits_2(tmp_path, dim, capsys):
    # refused when the chart is built, before any arithmetic on it
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"chart": dim, "eta": {"chart": dim, "terms": []}}))
    t0 = time.perf_counter()
    assert main(["run", str(p), "--quiet"]) == 2
    assert main(["verify", "presymplectic", "--dim", str(dim), "--quiet"]) == 2
    assert time.perf_counter() - t0 < 5
    assert f"1..{MAX_CHART_DIM}" in capsys.readouterr().err
    # every documented dimension stays valid
    assert SuiteConfig(suite="presymplectic", dim=MAX_CHART_DIM).dim >= 6


@pytest.mark.parametrize("instance", [
    {"n": 2, "eta": [["0", "-1"], ["1", "0"]],
     "beta": [["0", "x1^100000000"], ["-x1^100000000", "0"]]},
    {"chart": 2, "eta": {"chart": 2, "terms": [
        {"degree": 2, "indices": [1, 2], "num": "x1^100000000 + 1", "den": "1"}]}},
])
def test_cli_run_huge_exponent(tmp_path, instance):
    # refused by the parser: one huge power runs in C, where no timer reaches
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(instance))
    proc = subprocess.run(
        [sys.executable, "-m", "diracdeform", "run", str(p), "--quiet"],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 2
    assert f"exceeds {MAX_EXPONENT}" in proc.stderr


@pytest.mark.parametrize("num", [
    "+".join(["x1"] * (MAX_TERMS + 1)),
    "x1+" * (MAX_TERMS + 1),
])
def test_cli_run_too_many_terms(tmp_path, num, capsys):
    # refused while the string is split into terms, before any arithmetic
    instance = {"chart": 2, "eta": {"chart": 2, "terms": [
        {"degree": 2, "indices": [1, 2], "num": num, "den": "1"}]}}
    p = tmp_path / "long.json"
    p.write_text(json.dumps(instance))
    assert main(["run", str(p)]) == 2
    assert f"more than {MAX_TERMS} terms" in capsys.readouterr().err
    # a polynomial of exactly MAX_TERMS terms is read
    assert poly_from_str("+".join(["x1"] * MAX_TERMS), 1) == Poly.from_terms(
        1, {(1,): MAX_TERMS}
    )


def _skew_payload(nvars, rows=(("0", "x1"), ("-x1", "0"))):
    return {"n": len(rows), "nvars": nvars, "rows": [list(r) for r in rows]}


@pytest.mark.parametrize("nvars", [3000000, -1, "2", 2.0])
@pytest.mark.parametrize("replay", ["skew", "subspace"])
def test_cli_run_refuses_payload_nvars(tmp_path, nvars, replay, capsys):
    # refused before any entry is parsed: 16 * nvars bits a key would stall
    if replay == "skew":
        data = {"z": _skew_payload(nvars),
                "beta": _skew_payload(nvars, (("0", "0"), ("0", "0")))}
        name = "linalg.f_properties"
    else:
        data = {"eta": _skew_payload(2), "eps": _skew_payload(2),
                "G": {"ambient": 2, "nvars": nvars, "rows": [["x1", "0"]]}}
        name = "linalg.lagrangian_graph"
    p = tmp_path / "replay.json"
    p.write_text(json.dumps({"replay": name, "data": data}))
    t0 = time.perf_counter()
    assert main(["run", str(p)]) == 2
    assert time.perf_counter() - t0 < 5
    assert f"nvars {nvars!r} is outside 0..{MAX_CHART_DIM}" in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    ("x1" + "+" * 200000, "trailing sign"),
    ("-" * 200000, "trailing sign"),
    ("x1*" + "+" * 200000, "trailing sign"),
    ("(" + ")/(" * 70000 + "x1", "bad factor"),
])
def test_cli_run_refuses_long_hostile_entries(tmp_path, entry, message, capsys):
    # each is split in one scan, not rescanned from each of its signs or `)/(`
    inst = {"n": 2, "eta": [["0", entry], ["1", "0"]],
            "beta": [["0", "-1/3"], ["1/3", "0"]]}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    t0 = time.perf_counter()
    assert main(["run", str(p), "--quiet"]) == 2
    assert time.perf_counter() - t0 < 5
    assert message in capsys.readouterr().err


def test_cli_run_refusal_quotes_a_bounded_prefix(tmp_path, capsys):
    entry = "x1" + "+" * 200000
    inst = {"n": 2, "eta": [["0", entry], ["1", "0"]],
            "beta": [["0", "-1/3"], ["1/3", "0"]]}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "trailing sign" in err and f"({len(entry)} characters)" in err
    assert len(err.encode()) < 1024


ZERO_2X2 = {"n": 2, "nvars": 0, "rows": [["0", "0"], ["0", "0"]]}


@pytest.mark.parametrize("payload", [
    {"replay": "linalg.f_properties", "data": {
        "z": {"n": 2, "nvars": 0, "rows": [["0", "1"], ["-1"]]}, "beta": ZERO_2X2}},
    {"replay": "linalg.f_properties", "data": {
        "z": {"n": 3, "nvars": 0, "rows": [["0", "1"], ["-1", "0"]]}, "beta": ZERO_2X2}},
    {"n": "2", "eta": [["0", "-1"], ["1", "0"]], "beta": [["0", "0"], ["0", "0"]]},
    {"n": True, "eta": [["0"]], "beta": [["0"]]},
    {"n": 2},
    {"n": 2, "eta": [["0", "0"], ["0", "0"]]},
], ids=["replay-ragged", "replay-n-disagrees", "linear-n-string", "linear-n-bool",
        "linear-n-only", "linear-no-beta"])
def test_cli_run_refuses_misshapen_matrix_payloads(tmp_path, payload, capsys):
    # the shape of every matrix payload is checked before any entry is parsed
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(payload))
    assert main(["run", str(p), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


LONG_DEN = "x1-x1" + "+x1-x1" * 2000


@pytest.mark.parametrize("payload", [
    {"chart": 2, "eta": {"chart": 2, "terms": [
        {"degree": 2, "indices": [1, 2], "num": "1", "den": LONG_DEN}]}},
    {"replay": "a" * 50000},
    {"replay": "linalg.f_properties", "data": {
        "z": {"n": 2, "nvars": "1" * 50000, "rows": [["0", "1"], ["-1", "0"]]},
        "beta": ZERO_2X2}},
], ids=["zero-denominator", "replay-name", "nvars"])
def test_cli_run_refusals_stay_short(tmp_path, payload, capsys):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(payload))
    assert main(["run", str(p), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "characters)" in err and len(err.encode()) < 1024


@pytest.mark.parametrize("num, code", [
    ("1", 0), (1, 0), (1.5, 2), (None, 2), (True, 2),
], ids=["string", "int", "float", "null", "bool"])
def test_cli_run_chart_term_reads_entries_as_strings(tmp_path, num, code):
    # a JSON number reads as its string twin; 1.5, null and true are refused
    inst = {"chart": 2, "eta": {"chart": 2, "terms": [
        {"degree": 2, "indices": [1, 2], "num": num, "den": "1"}]}}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    assert main(["run", str(p), "--quiet"]) == code


@pytest.mark.parametrize("name", ["presym.hor_subcomplex", "presym.preservation"])
def test_cli_run_uncertifiable_instance_replay_skips(tmp_path, name, capsys):
    # eta = x1 dx1^dx2 has generic rank 2, but its Pfaffian x1 vanishes at 0
    inst = {"chart": 4, "eta": {"chart": 4, "terms": [
        {"degree": 2, "indices": [1, 2], "num": "x1", "den": "1"}]}}
    p = tmp_path / "replay.json"
    p.write_text(json.dumps({"replay": name, "data": {"instance": inst, "seed": 1}}))
    assert main(["run", str(p), "--quiet"]) == 0
    assert "0 pass, 0 fail, 1 skipped" in capsys.readouterr().out


def test_cli_run_linear_instance_above_chart_limit(tmp_path):
    # a linear instance parses over n variables, so its battery has nvars = n
    n = MAX_CHART_DIM + 2
    eta = [["0"] * n for _ in range(n)]
    for i in range(0, n - 2, 2):
        eta[i][i + 1], eta[i + 1][i] = "-1", "1"
    beta = [["0"] * n for _ in range(n)]
    beta[n - 2][n - 1], beta[n - 1][n - 2] = "-1/3", "1/3"
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"n": n, "eta": eta, "beta": beta}))
    assert main(["run", str(p), "--quiet"]) == 0


@pytest.mark.parametrize("entry", ["-x1\n", "\u0663", "1/\u0663", "(x1)\n/(2)"])
def test_cli_run_refuses_line_breaks_and_non_ascii_digits(tmp_path, entry, capsys):
    inst = {"n": 2, "eta": [["0", entry], ["1", "0"]],
            "beta": [["0", "-1/3"], ["1/3", "0"]]}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    assert main(["run", str(p), "--quiet"]) == 2
    assert "bad factor" in capsys.readouterr().err


def test_cli_run_instance(tmp_path):
    inst = {
        "n": 2,
        "eta": [["0", "-1"], ["1", "0"]],
        "beta": [["0", "-1/3"], ["1/3", "0"]],
    }
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    assert main(["run", str(p), "--quiet"]) == 0


def test_cli_run_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("instance", [
    {"n": 2, "eta": [["0", "-1"], ["1", "0"]], "beta": [["0", "1/0"], ["-1/0", "0"]]},
    {"n": 2, "eta": [["0", "(1)/(x1-x1)"], ["0", "0"]], "beta": [["0", "0"], ["0", "0"]]},
    {"chart": 2, "eta": {"chart": 2, "terms": [
        {"degree": 2, "indices": [1, 2], "num": "1", "den": "x1-x1"}]}},
    {"replay": "linalg.tau_pairing", "data": {
        "beta": {"n": 2, "nvars": 0, "rows": [["0", "-4/3"], ["4/3", "0"]]},
        "z": {"n": 2, "nvars": 0, "rows": [["0", "-9/5"], ["9/5", "0"]]},
        "u": ["1/0", "-8", "5", "6"], "w": ["7", "-1", "3", "5"]}},
    {"chart": 3, "ref_point": ["1/0", "0", "0"], "eta": {"chart": 3, "terms": [
        {"degree": 2, "indices": [1, 2], "num": "1", "den": "1"}]}},
    {"replay": "mc.equivalence", "data": {
        "z": {"chart": 2, "terms": [
            {"degree": 2, "indices": [1, 2], "num": "1", "den": "1"}]},
        "beta": {"chart": 2, "terms": [
            {"degree": 2, "indices": [1, 2], "num": "x1", "den": "1"}]},
        "expect_mc": True, "grid": ["0", "1/0"]}},
], ids=["matrix-entry", "matrix-quotient", "form-term", "replay-tau-u",
        "chart-ref-point", "replay-grid"])
def test_cli_run_zero_denominator(tmp_path, instance):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(instance))
    assert main(["run", str(p), "--quiet"]) == 2


@pytest.mark.parametrize("instance", [
    {"n": 2, "eta": [["0", "-1"], ["1"]], "beta": [["0", "0"], ["0", "0"]]},
    {"n": 2, "eta": [["0", "-1"], ["1", "0"]], "beta": [["0", "0"]]},
    {"n": 2, "eta": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
     "beta": [["0", "0"], ["0", "0"]]},
    {"n": 2, "eta": [["0", "-1"], ["1", "0"]], "beta": [["0", "0"], ["0", "0"]],
     "G": [["1", "0", "0"]]},
], ids=["ragged-eta", "short-beta", "oversized-eta", "wide-G"])
def test_cli_run_wrongly_sized_matrix(tmp_path, instance):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(instance))
    assert main(["run", str(p), "--quiet"]) == 2


ZERO_2 = [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("instance, code", [
    ({"n": 2, "eta": ZERO_2, "beta": ZERO_2}, 0),
    ({"n": 2, "eta": ZERO_2, "beta": ZERO_2, "G": []}, 0),
    ({"chart": 2, "eta": {"chart": 2, "terms": []}}, 0),
    ({"n": 0, "eta": [], "beta": []}, 2),
], ids=["linear", "linear-empty-G", "chart", "dimension-0"])
def test_cli_run_rank_zero_eta(tmp_path, instance, code):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(instance))
    assert main(["run", str(p), "--quiet"]) == code


NEGATED = {"0": "0", "1": "-1", "-1": "1", "2": "-2", "1/2": "-1/2"}
ENTRIES = st.sampled_from(list(NEGATED))


@st.composite
def _linear_instances(draw):
    n = draw(st.integers(1, 3))
    eta = [["0"] * n for _ in range(n)]
    beta = [["0"] * n for _ in range(n)]
    for M in (eta, beta):
        for i in range(n):
            for j in range(i + 1, n):
                a = draw(ENTRIES)
                M[i][j] = a
                M[j][i] = NEGATED[a]
    inst = {"n": n, "eta": eta, "beta": beta}
    if draw(st.booleans()):
        inst["G"] = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                                  max_size=n))
    return inst


@given(_linear_instances())
@settings(max_examples=200, deadline=None)
def test_cli_run_linear_exit_codes(instance):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "inst.json"
        p.write_text(json.dumps(instance))
        assert main(["run", str(p), "--quiet"]) in (0, 2)


def test_cli_run_malformed_replay_data(tmp_path):
    p = tmp_path / "replay.json"
    p.write_text(json.dumps({"replay": "linalg.lemma_battery", "data": {}}))
    assert main(["run", str(p), "--quiet"]) == 2


def test_cli_run_replay_failure_exit_code(tmp_path):
    from diracdeform.exterior import Chart, DifferentialForm, to_json

    c3 = Chart(3)
    bad = {
        "replay": "exterior.leibniz",
        "data": {
            "a": to_json(DifferentialForm.make(c3, {(1,): "x2"})),
            "b": to_json(DifferentialForm.make(c3, {(2,): "x3"})),
            "p": 0,
        },
    }
    p = tmp_path / "replay.json"
    p.write_text(json.dumps(bad))
    assert main(["run", str(p), "--quiet"]) == 1


def test_cli_generate_kinds(tmp_path):
    for kind in ("skew-form", "bivector-field", "horizontal-form",
                 "presymplectic-instance"):
        out = tmp_path / f"{kind}.json"
        code = main(["generate", kind, "--seed", "1", "--dim", "4",
                     "--rank", "2", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data


def test_cli_generate_then_run_uncapped(tmp_path, capsys):
    # highest exponent 7: products of this size are computed exactly
    p = str(tmp_path / "sheared.json")
    assert main(["generate", "presymplectic-instance", "--dim", "5",
                 "--rank", "2", "--shear-degree", "6", "--seed", "1",
                 "--out", p]) == 0
    assert main(["run", p, "--quiet"]) == 0
    assert "2 pass, 0 fail, 0 skipped" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["presymplectic-instance", "horizontal-form"])
@pytest.mark.parametrize("flags", [
    ["--shear-degree", str(MAX_EXPONENT // 2 + 2)],
    ["--shear-degree", "200"],
    ["--shear-degree", "-3"],
    ["--rank", "-2"],
    ["--rank", "3"],
    ["--rank", "6"],
])
def test_cli_generate_bad_flag_exits_2(tmp_path, kind, flags, capsys):
    out = tmp_path / "bad.json"
    assert main(["generate", kind, "--dim", "4", *flags, "--out", str(out)]) == 2
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["skew-form", "bivector-field", "horizontal-form"])
def test_cli_run_names_the_generated_kind_it_refuses(tmp_path, kind, capsys):
    p = str(tmp_path / f"{kind}.json")
    assert main(["generate", kind, "--dim", "4", "--rank", "2", "--out", p]) == 0
    assert main(["run", p, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert repr(kind) in err and "presymplectic-instance" in err


def test_cli_generate_largest_shear_then_run(tmp_path, capsys):
    # a shear of degree D writes exponents of at most 2D - 2 <= MAX_EXPONENT
    p = str(tmp_path / "sheared.json")
    assert main(["generate", "presymplectic-instance", "--dim", "5",
                 "--rank", "2", "--shear-degree", str(MAX_EXPONENT // 2 + 1),
                 "--seed", "1", "--out", p]) == 0
    assert main(["run", p, "--quiet"]) == 0
    assert "2 pass, 0 fail, 0 skipped" in capsys.readouterr().out


def test_generate_deterministic_and_snapshot():
    a = generate_payload("skew-form", 1, 4, 2, 1)
    b = generate_payload("skew-form", 1, 4, 2, 1)
    assert a == b
    # frozen snapshot, established at first run
    assert a == {
        "kind": "skew-form",
        "n": 4,
        "matrix": SNAPSHOT_SKEW_N4_SEED1,
    }


def test_generate_normal_form_shear_zero():
    data = generate_payload("presymplectic-instance", 9, 4, 2, 0)
    assert data["eta"]["terms"] == [
        {"degree": 2, "indices": [1, 2], "num": "1", "den": "1"}
    ]


def test_generate_horizontal_form_is_horizontal():
    from diracdeform.exterior import form_from_json
    from diracdeform.presymplectic import instance_from_json, is_horizontal

    for seed in (0, 1, 2):
        data = generate_payload("horizontal-form", seed, 4, 2, 1)
        built = instance_from_json(data["instance"])
        form = form_from_json(data["form"])
        assert is_horizontal(form, built.K)


def test_cli_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "diracdeform.cli", "verify", "dirac",
         "--trials", "1", "--quiet"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "suite dirac" in proc.stdout


def test_python_m_help():
    proc = subprocess.run(
        [sys.executable, "-m", "diracdeform", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "usage: diracdeform" in proc.stdout


SNAPSHOT_SKEW_N4_SEED1 = [
    ["0", "1", "-1/2", "-1"],
    ["-1", "0", "-7/8", "1/5"],
    ["1/2", "7/8", "0", "2/3"],
    ["1", "-1/5", "-2/3", "0"],
]


def test_parallel_trials_identical_report():
    from diracdeform.suites import run_suite as _run

    cfg = SuiteConfig(suite="dirac", trials=3, seed=99)
    serial = assemble_report("suite", "dirac", cfg.to_json(), _run(cfg, jobs=1))
    parallel = assemble_report("suite", "dirac", cfg.to_json(), _run(cfg, jobs=2))
    assert comparable(serial) == comparable(parallel)
