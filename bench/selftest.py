#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py

Runs the traced run of every workload (two traced passes each) and checks
that:

* every traced name records at least one call on at least one workload, so
  no span can silently read zero;
* the call counts of the two traced passes of a workload are identical;
* the tracer leaves no binding of a traced function unwrapped, would notice
  one, and restores every binding when it exits;
* the counts show the separation the workloads were chosen for: linear_q
  makes no ``exterior.multi_sharp`` call, and under 1% of the Scalar
  multiplies of symbolic_brackets have both operands in Q.

Exits 0 when every check holds, 1 when one fails, and 2 when the program
cannot be imported.
"""

from __future__ import annotations

import sys

import tracing
from run import WORKLOADS, Gate, ProgramError, RefClock, load_program, per_layer


def bindings() -> dict[tuple, int]:
    """id() of every function bound in a package module, in a class of the
    package, or in the generator registry."""
    out = {}
    for mod in tracing.package_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in vars(value).items():
                    if callable(v):
                        out[(mod.__name__, attr, k)] = id(v)
    for key, fn in sys.modules["diracdeform.suites"].CHECK_GENERATORS.items():
        out[("CHECK_GENERATORS", key)] = id(fn)
    return out


def detector_problems() -> list[str]:
    """Copies made by `from .x import y` are wrapped, and a binding planted
    after patching is reported as stale."""
    problems = []
    suites = sys.modules["diracdeform.suites"]
    with tracing.Tracer():
        for module, attr in [("koszul", "contract"), ("presymplectic", "contract"),
                             ("suites", "contract"), ("linalg", "poly_divexact")]:
            if not hasattr(getattr(sys.modules[f"diracdeform.{module}"], attr), "__wrapped__"):
                problems.append(f"{module}.{attr} is not wrapped")
        original = suites.contract.__wrapped__
        suites._planted = original
        try:
            found = tracing.stale_bindings({id(original)})
        finally:
            del suites._planted
    if "diracdeform.suites._planted" not in found:
        problems.append(f"planted binding not detected: {found}")
    return problems


def main() -> int:
    with RefClock() as clock:
        try:
            prog = load_program()
        except ProgramError as exc:
            print(f"selftest: {exc}", file=sys.stderr)
            return 2
        return selftest(prog, clock)


def selftest(prog, clock: RefClock) -> int:
    before = bindings()
    problems = detector_problems()
    calls: dict[str, dict[str, int]] = {}
    shares: dict[str, float] = {}
    for name, workload in WORKLOADS.items():
        gate = Gate(prog)
        metrics, detail, notes = per_layer(prog, workload, 0, clock, gate)
        problems += [f"{name}: {n}" for n in notes + gate.notes]
        calls[name] = {n: metrics[f"{n}.calls"]["value"] for n in tracing.NAMES}
        shares[name] = detail["scalar_mul_shares"]["q"]
        print(f"{name}: {detail['traced_passes']} traced passes, "
              f"{sum(calls[name].values())} spans per pass")
    after = bindings()
    moved = [k for k, v in before.items() if after.get(k) != v]
    if moved:
        problems.append(f"bindings not restored after tracing: {moved}")
    for n in tracing.NAMES:
        if not any(c[n] for c in calls.values()):
            problems.append(f"{n}: no call on any workload")
    if calls["linear_q"]["exterior.multi_sharp"]:
        problems.append("linear_q calls exterior.multi_sharp")
    if shares["symbolic_brackets"] >= 0.01:
        problems.append(f"symbolic_brackets q share {shares['symbolic_brackets']:.3f} >= 1%")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
