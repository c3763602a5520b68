#!/usr/bin/env python3
"""Census of uncalled functions: which functions of ``src/`` does no input reach?

    PYTHONPATH=src python tests/census.py

It runs, in this process, one pass of each benchmark corpus (the workloads
of ``bench/run.py``), ``verify all`` at the default dimension (writing a
report) and at dimension 5, ``run`` on a chart instance with a beta, on a
generated chart instance, on a linear instance, on a 12x12 instance whose
gcds fall back to the PRS, on a replay file, on a malformed entry and on a
replay over too many variables, and ``generate`` of every kind.
``sys.settrace`` records each function entered.  Every function defined
under ``src/`` that was never entered and is not on the keep-list below is
printed, and the exit code is then 1, as it is for a keep-list entry that
names no function; otherwise it is 0.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "diracdeform")

# Functions that no input above reaches, each kept for the reason given.
KEEP = {
    "rational.Scalar.inverse": "bench/tracing.py wraps it; the tests divide by it",
    "rational.Scalar.__truediv__": "the tests use / as a reference",
    "rational.Poly.items": "the sympy oracles of the tests read it",
    "rational.Poly.coefficient": "the sympy oracles of the tests read it",
    "rational.Scalar.scale": "the sympy oracles of the tests read it",
    "suites._open_certified_memo": "runs in the pool workers of verify --jobs N, "
                                   "which this process does not trace",
    "linalg.mat_scale": "shrink_into_IZ halves a draw outside I_Z with it; "
                        "no draw of these inputs needs halving",
    "rational.scalar_to_str": "writes a Q(x) entry: the reprs, and matrix_to_json "
                              "of a matrix that no generate kind makes",
    "exterior._pretty": "the __repr__ of forms and fields",
    "report.comparable": "the correctness gate of bench/run.py and the pinned-report "
                         "tests read it",
}
# Any __repr__ is kept: pytest prints it when an assertion fails.
KEEP_NAMES = {"__repr__"}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of each named function under src/, mapped
    to "module.Class.function"."""
    out = {}

    def walk(code, filename, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            qual = f"{prefix}.{const.co_name}"
            # a class body is a code object too, but not an optimized one
            if const.co_flags & inspect.CO_OPTIMIZED:
                out[(filename, const.co_firstlineno, const.co_name)] = qual
            walk(const, filename, qual)

    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            code = compile(fh.read(), path, "exec")
        walk(code, os.path.realpath(path), name[:-3])
    return out


def run_inputs() -> None:
    from diracdeform import cli, report, suites
    from diracdeform.dirac import matrix_to_json
    from diracdeform.exterior import Chart, DifferentialForm, to_json
    from diracdeform.randgen import random_rank_k_skew, random_skew

    # the corpora as bench/run.py defines them; it imports its neighbours
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(ROOT, "bench", "run.py"))
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for workload in bench.WORKLOADS.values():
        for seed in range(workload.seeds):
            for suite in workload.suites:
                cfg = report.SuiteConfig(suite, trials=workload.trials, seed=seed)
                report.assemble_report("suite", suite, cfg.to_json(), suites.run_suite(cfg))

    rng = random.Random(0)
    n = 12
    deep_gcd = {
        "n": n,
        "eta": [["0" if i == j else (f"x{j + 1}" if i < j else f"-x{i + 1}")
                 for j in range(n)] for i in range(n)],
        "beta": [["0"] * n for _ in range(n)],
    }
    linear = {"n": 4, "eta": matrix_to_json(random_rank_k_skew(rng, 4, 2).mat),
              "beta": matrix_to_json(random_skew(rng, 4).mat)}
    chart = suites.family_f2()
    chart["beta"] = to_json(DifferentialForm.make(Chart(5), {(1, 2): "x5"}))
    with tempfile.TemporaryDirectory() as tmp:
        def path(name, payload=None):
            p = os.path.join(tmp, name)
            if payload is not None:
                with open(p, "w") as fh:
                    json.dump(payload, fh)
            return p

        os.environ["DIRACDEFORM_REPORT_DIR"] = tmp
        replay = {"replay": "presym.build", "data": suites.family_f1()}
        malformed = {"n": 2, "eta": [["0", "x1*"], ["-x1", "0"]], "beta": [["0"] * 2] * 2}
        skew = {"n": 2, "nvars": 3000000, "rows": [["0", "x1"], ["-x1", "0"]]}
        big_nvars = {"replay": "linalg.f_properties", "data": {"z": skew, "beta": skew}}
        commands = [
            (["verify", "all", "--trials", "1", "--seed", "0", "--report", "all.json"], 0),
            (["verify", "all", "--dim", "5", "--trials", "1", "--seed", "0", "--quiet"], 0),
            (["run", path("chart.json", chart), "--quiet"], 0),
            (["run", path("linear.json", linear), "--quiet"], 0),
            (["run", path("deep-gcd.json", deep_gcd), "--quiet"], 0),
            (["run", path("replay.json", replay), "--quiet"], 0),
            (["run", path("malformed.json", malformed), "--quiet"], 2),
            (["run", path("big-nvars.json", big_nvars), "--quiet"], 2),
        ]
        for kind in ("skew-form", "bivector-field", "horizontal-form", "presymplectic-instance"):
            commands.append((["generate", kind, "--seed", "1", "--out", path(f"{kind}.json")], 0))
        commands.append((["run", path("presymplectic-instance.json"), "--quiet"], 0))
        for argv, expected in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != expected:
                raise SystemExit(f"census input exited {code}, not {expected}: {' '.join(argv)}")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    functions = defined_functions()
    seen = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.settrace(tracer)
    try:
        run_inputs()
    finally:
        sys.settrace(None)
    entered = {(os.path.realpath(f), line, name) for f, line, name in seen}
    uncalled = sorted(
        qual for key, qual in functions.items()
        if key not in entered and qual not in KEEP
        and qual.rsplit(".", 1)[-1] not in KEEP_NAMES
    )
    stale = sorted(set(KEEP) - set(functions.values()))
    for qual in uncalled:
        print(f"never entered: {qual}")
    for qual in stale:
        print(f"kept but not defined: {qual}")
    print(f"census: {len(functions)} functions, {len(uncalled)} never entered "
          f"and not kept")
    return 1 if uncalled or stale else 0


if __name__ == "__main__":
    sys.exit(main())
