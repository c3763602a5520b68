#!/usr/bin/env python3
"""Benchmark of the diracdeform verifier.

    python3 bench/run.py --workload linear_q --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ``src/``.
Each workload is a set of suites, run through the library path of
``diracdeform verify --jobs 1``: ``suites.run_suite(SuiteConfig(suite,
trials, seed))`` and then ``report.assemble_report``.  One caller runs one
check at a time in this process (a closed loop).

``--trace 0`` reports the end-to-end metrics of timed passes over the
workload's fixed corpus.  Their times are read on a reference clock: each
suite run's wall time is scaled by a fixed pure-Python loop, timed just
before and after it in a helper process (refclock.py), which cancels the
speed swings of a shared machine.  The wall-clock figures are printed beside
them.  ``--trace 1`` reports per-layer call counts and self times from a
separate traced run.  Every pass goes through a correctness gate as soon as
it finishes.  The last line of standard output is one JSON object; the exit
code is 1 when the gate fails and 2 when the benchmark itself fails.
bench/README.md explains the workloads, the fixed corpus and each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from tracing import MODULES, MUL_CLASSES, NAMES, Tracer, TracingError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


@dataclass(frozen=True)
class Workload:
    suites: tuple[str, ...]
    trials: int  # draws per randomized check in each suite run of the corpus
    seeds: int  # the corpus runs each suite at suite seeds 0 .. seeds - 1


# The timed corpus is one suite run per (seed, suite), the same for every
# --seed: per-check costs are heavy-tailed, so fresh draws per run would
# measure the draw more than the program (README.md, "Why the timed corpus
# is fixed").  Many short suite runs, each under a second, let the reference
# clock bracket each one closely.
WORKLOADS = {
    "linear_q": Workload(("linalg",), 2, 10),
    "symbolic_brackets": Workload(("exterior", "koszul", "linf-jacobi"), 5, 4),
    "rational_pipeline": Workload(("mc", "presymplectic", "dirac"), 4, 4),
}
# Draws per randomized check of the untimed probe at the --seed suite seed.
PROBE_TRIALS = 2
SETUP_REPEATS = 5
MIN_PASSES = 2
REF_UNITS = 30  # reference units per reference measurement (about 150 ms)
# Nominal time of one reference unit: a suite run of w wall seconds, during
# which one unit took u seconds, counts as w * REF_UNIT_S / u seconds on the
# reference clock.
REF_UNIT_S = 0.005


class ProgramError(Exception):
    """The program could not be imported, or its set-up failed."""


class BenchError(Exception):
    """The benchmark itself failed, not the program."""


def load_program():
    """Import diracdeform from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import diracdeform
        from diracdeform import report, suites
    except ImportError as exc:
        raise ProgramError(f"cannot import diracdeform from {SRC}: {exc}") from exc
    if not os.path.abspath(diracdeform.__file__).startswith(SRC + os.sep):
        raise ProgramError(f"diracdeform imported from {diracdeform.__file__}, not {SRC}")
    return suites, report


def configs(prog, workload: Workload, seeds, trials: int) -> list:
    _, report = prog
    return [report.SuiteConfig(s, trials=trials, seed=seed)
            for seed in seeds for s in workload.suites]


def pin_to_one_cpu() -> None:
    """Keep this process, and so the clock and the set-up processes it
    starts, on one CPU.  They never run at once, and the clock then shares
    the program's core and whatever else slows that core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class RefClock:
    """The reference clock: a helper process running refclock.py, which
    times the reference unit on request (a context manager)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "refclock.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def unit_seconds(self) -> float:
        """Seconds one reference unit takes now."""
        try:
            self.proc.stdin.write(f"{REF_UNITS}\n")
            self.proc.stdin.flush()
            return float(self.proc.stdout.readline())
        except (OSError, ValueError) as exc:
            raise BenchError(f"reference clock failed: {exc}") from exc

    def __enter__(self) -> "RefClock":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Gate:
    """The correctness gate, applied to each pass as soon as it finishes.

    Every status must be `pass`, or `skipped` on every pass alike, and
    `report.comparable` must give the same output on every pass as on the
    first.  Only the first pass's comparable output is kept.
    """

    def __init__(self, prog):
        self.comparable = prog[1].comparable
        self.ref: list[dict] | None = None
        self.ref_checks: list[dict] = []
        self.mix: dict[str, int] = {}
        self.passes = self.attempted = self.failed = 0
        self.notes: list[str] = []

    def check(self, reports: list[dict]) -> None:
        comp = [self.comparable(r) for r in reports]
        checks = [chk for rep in comp for chk in rep["checks"]]
        if self.ref is None:
            self.ref, self.ref_checks = comp, checks
            self.mix = dict(Counter(chk["name"] for chk in checks))
        wrong = [c for c in checks if c["status"] == "fail"]
        if comp != self.ref:
            wrong += [c for c, w in zip(checks, self.ref_checks) if c != w and c["status"] != "fail"]
            if len(checks) != len(self.ref_checks) or not wrong:
                wrong.append({"name": "report", "status": "differs", "detail": "from pass 0"})
        self.notes += [f"pass {self.passes}: {c['name']} {c['status']}: {c['detail']}" for c in wrong]
        self.passes += 1
        self.attempted += len(checks)
        self.failed += len(wrong)


def run_reports(prog, cfg) -> list[dict]:
    """One `verify` run; the modules are looked up on each call so that the
    tracer's patches apply."""
    suites, report = prog
    return report.assemble_report("suite", cfg.suite, cfg.to_json(), suites.run_suite(cfg))


@dataclass
class Pass:
    seconds: list[float] = field(default_factory=list)  # wall time of each suite run
    scale: list[float] = field(default_factory=list)  # reference-clock seconds per wall second
    wall_ms: list[list[float]] = field(default_factory=list)  # each check's wall_ms, per suite run

    def ref_seconds(self) -> float:
        return sum(s * k for s, k in zip(self.seconds, self.scale))


def run_pass(prog, cfgs, clock: RefClock, gate: Gate) -> Pass:
    """One `verify` run per config, each timed on its own, then gated.  The
    reference unit is timed before the first run and after each run, and
    each run is scaled by the mean of the two around it."""
    p = Pass()
    reports = []
    before = clock.unit_seconds()
    for cfg in cfgs:
        t0 = time.perf_counter()
        reports.append(run_reports(prog, cfg))
        p.seconds.append(time.perf_counter() - t0)
        after = clock.unit_seconds()
        p.scale.append(2 * REF_UNIT_S / (before + after))
        p.wall_ms.append([chk["wall_ms"] for chk in reports[-1]["checks"]])
        before = after
    gate.check(reports)
    return p


def run_passes(prog, cfgs, clock: RefClock, gate: Gate, seconds: float, between=None) -> list[Pass]:
    """Repeat identical passes until `seconds` have elapsed (at least two)."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(prog, cfgs, clock, gate))
        if between is not None:
            between()
    return passes


def warm_up(prog, workload: Workload) -> None:
    for cfg in configs(prog, workload, [0], 1):
        run_reports(prog, cfg)


def probe(prog, workload: Workload, seed: int) -> tuple[int, int, list[str]]:
    """Fresh draws at the --seed suite seed, untimed: none may fail."""
    checks = [chk for cfg in configs(prog, workload, [seed], PROBE_TRIALS)
              for chk in run_reports(prog, cfg)["checks"]]
    failed = [c for c in checks if c["status"] == "fail"]
    return len(checks), len(failed), [f"probe seed {seed}: {c['name']}: {c['detail']}" for c in failed]


def setup_seconds(workload: Workload, clock: RefClock) -> tuple[list[float], list[float]]:
    """Wall and reference-clock seconds of SETUP_REPEATS fresh set-ups."""
    cmd = [sys.executable, os.path.join(HERE, "setup_pass.py"),
           ",".join(map(str, range(workload.seeds))), str(workload.trials), *workload.suites]
    wall, ref = [], []
    before = clock.unit_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise ProgramError(f"set-up pass failed: {done.stderr.strip()[-500:]}")
        after = clock.unit_seconds()
        ref.append(wall[-1] * 2 * REF_UNIT_S / (before + after))
        before = after
    return wall, ref


def machine_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(prog, workload: Workload, seconds: float, clock: RefClock,
               gate: Gate) -> tuple[dict, dict]:
    setup_wall, setup_ref = setup_seconds(workload, clock)
    cfgs = configs(prog, workload, range(workload.seeds), workload.trials)
    warm_up(prog, workload)
    passes = run_passes(prog, cfgs, clock, gate, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms, ref_ms = [], []
    for p in passes:
        for run_ms, scale in zip(p.wall_ms, p.scale):
            ms += run_ms
            ref_ms += [t * scale for t in run_ms]
    wall_s = sum(sum(p.seconds) for p in passes)
    ref_s = sum(p.ref_seconds() for p in passes)
    metrics = {
        "checks_per_s": metric(len(ms) / ref_s, "1/s"),
        "check_ms_p50": metric(statistics.median(ref_ms), "ms"),
        "check_ms_p90": metric(statistics.quantiles(ref_ms, n=10)[-1], "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup_ref), "s"),
    }
    detail = {
        "passes": len(passes),
        "checks_per_pass": sum(map(len, passes[0].wall_ms)),
        "latency_samples": len(ms),
        "setup_ref_s": setup_ref,
        "pass_seconds": [sum(p.seconds) for p in passes],
        "ref_unit_ms": [1000 * REF_UNIT_S / statistics.mean(p.scale) for p in passes],
        "wall_clock": {"checks_per_s": len(ms) / wall_s,
                       "check_ms_p50": statistics.median(ms),
                       "check_ms_p90": statistics.quantiles(ms, n=10)[-1],
                       "setup_s": statistics.median(setup_wall)},
    }
    return metrics, detail


def per_layer(prog, workload: Workload, seconds: float, clock: RefClock,
              gate: Gate) -> tuple[dict, dict, list[str]]:
    cfgs = configs(prog, workload, range(workload.seeds), workload.trials)
    warm_up(prog, workload)
    plain = run_pass(prog, cfgs, clock, gate)
    summaries: list[dict] = []
    classes: list[list[int]] = []
    with Tracer() as tracer:
        def collect():
            summaries.append(tracer.summary())
            classes.append(list(tracer.mul_classes))
            tracer.reset()

        traced = run_passes(prog, cfgs, clock, gate, seconds, between=collect)
    notes = []
    for k in range(1, len(summaries)):
        moved = [n for n in NAMES if summaries[k][n]["calls"] != summaries[0][n]["calls"]]
        if moved or classes[k] != classes[0]:
            notes.append(f"traced pass {k}: call counts differ from pass 0: {moved or 'scalar_mul classes'}")
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = metric(summaries[0][name]["calls"], "count")
        metrics[f"{name}.self_ms"] = metric(
            statistics.median(s[name]["self_ms"] for s in summaries), "ms")
    for cls, count in zip(MUL_CLASSES, classes[0]):
        metrics[f"rational.scalar_mul.{cls}.calls"] = metric(count, "count")
    for module in MODULES:
        metrics[f"{module}.self_ms"] = metric(statistics.median(
            sum(s[n]["self_ms"] for n in NAMES if n.startswith(module + ".")) for s in summaries), "ms")
    metrics["trace.overhead_s"] = metric(
        statistics.median(p.ref_seconds() for p in traced) - plain.ref_seconds(), "s")
    total_mul = sum(classes[0]) or 1
    detail = {"traced_passes": len(traced), "plain_pass_seconds": sum(plain.seconds),
              "traced_pass_seconds": [sum(p.seconds) for p in traced],
              "scalar_mul_shares": {c: n / total_mul for c, n in zip(MUL_CLASSES, classes[0])}}
    return metrics, detail, notes


def measure(prog, workload: Workload, args, clock: RefClock) -> tuple[dict, dict, Gate, int, int, list[str]]:
    """Every pass of one run: (metrics, detail, gate, attempted, failed, notes)."""
    gate = Gate(prog)
    if args.trace:
        metrics, detail, notes = per_layer(prog, workload, args.seconds, clock, gate)
    else:
        metrics, detail = end_to_end(prog, workload, args.seconds, clock, gate)
        notes = []
    n, bad, probe_notes = probe(prog, workload, args.seed)
    return (metrics, detail, gate, gate.attempted + n, gate.failed + len(notes) + bad,
            notes + gate.notes + probe_notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    # The clock's process starts before the program is imported.
    with RefClock() as clock:
        try:
            prog = load_program()
        except ProgramError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        try:
            metrics, detail, gate, attempted, failed, notes = measure(prog, workload, args, clock)
        except (BenchError, TracingError) as exc:
            print(f"bench: benchmark error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # the program raised: report it, do not time it
            print(f"bench: program raised {type(exc).__name__}: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1

    record = {
        "workload": args.workload, "suites": list(workload.suites),
        "corpus": {"seeds": workload.seeds, "trials": workload.trials},
        "probe": {"seed": args.seed, "trials": PROBE_TRIALS},
        "trace": args.trace, "machine": machine_info(), "detail": detail,
        "check_mix": gate.mix, "gate": notes,
        "failed_share": failed / attempted, "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for note in notes:
        print(f"gate: {note}")
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"check_mix: {json.dumps(record['check_mix'])}")
    print(f"detail: {json.dumps(detail)}")
    if not args.trace:
        print(f"clock: times below are reference-clock seconds, {REF_UNIT_S * 1000:g} ms "
              "per reference unit; detail.wall_clock has the wall-clock figures")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_share = {failed / attempted:.6g} share ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
