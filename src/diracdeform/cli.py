"""Command-line harness.

    diracdeform verify <suite> [--dim N] [--trials T] [--seed S]
                       [--max-form-degree D] [--max-coef-degree C]
                       [--report PATH]
    diracdeform run <instance.json> [--report PATH]
    diracdeform generate <kind> [--seed S] [--dim N] [--rank K]
                        [--shear-degree D] [--out PATH]

Exit codes: 0 all checks pass, 1 some check failed, 2 usage/parse error.
Reports default into $DIRACDEFORM_REPORT_DIR when --report is a bare name.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .report import (
    CheckOutcome,
    InvalidConfigError,
    SuiteConfig,
    assemble_report,
    exit_code,
    write_report,
)

USAGE_ERROR = 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (InvalidConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diracdeform",
        description="Exact verification harness for pre-symplectic "
        "deformations via Dirac geometry.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a named randomized suite")
    v.add_argument("suite")
    v.add_argument("--dim", type=int, default=None)
    v.add_argument("--trials", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-form-degree", type=int, default=3)
    v.add_argument("--max-coef-degree", type=int, default=2)
    v.add_argument(
        "--grid",
        default=None,
        help="comma-separated rational grid coordinates, e.g. 0,1/2,-1/3",
    )
    v.add_argument("--report", default=None)
    v.add_argument("--jobs", type=int, default=1,
                   help="run independent trials in a process pool")
    v.add_argument("--quiet", action="store_true")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("run", help="run an instance or replay file")
    r.add_argument("path")
    r.add_argument("--report", default=None)
    r.add_argument("--quiet", action="store_true")
    r.set_defaults(func=_cmd_run)

    g = sub.add_parser("generate", help="emit a random serialized instance")
    g.add_argument(
        "kind",
        choices=[
            "skew-form",
            "bivector-field",
            "horizontal-form",
            "presymplectic-instance",
        ],
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dim", type=int, default=4)
    g.add_argument("--rank", type=int, default=2)
    g.add_argument("--shear-degree", type=int, default=1)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_generate)
    return p


def _print_outcomes(outcomes, quiet: bool):
    if quiet:
        return
    for o in outcomes:
        print(f"[{o.status:7s}] {o.name}: {o.detail}")


def _cmd_verify(args) -> int:
    from .suites import run_suite

    grid = tuple(args.grid.split(",")) if args.grid else None
    config = SuiteConfig(
        suite=args.suite,
        dim=args.dim,
        trials=args.trials,
        seed=args.seed,
        max_form_degree=args.max_form_degree,
        max_coef_degree=args.max_coef_degree,
        report_path=args.report,
        **({"grid_coords": grid} if grid else {}),
    )
    outcomes = run_suite(config, jobs=max(1, args.jobs))
    report = assemble_report("suite", args.suite, config.to_json(), outcomes)
    _print_outcomes(outcomes, args.quiet)
    path = write_report(report, args.report)
    s = report["summary"]
    print(
        f"suite {args.suite}: {s['pass']} pass, {s['fail']} fail, "
        f"{s['skipped']} skipped" + (f" -> {path}" if path else "")
    )
    return exit_code(report)


def _cmd_run(args) -> int:
    try:
        with open(args.path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON in {args.path}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        label, outcomes = run_instance_payload(payload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = assemble_report("instance", label, {"path": args.path}, outcomes)
    _print_outcomes(outcomes, args.quiet)
    path = write_report(report, args.report)
    s = report["summary"]
    print(
        f"instance {label}: {s['pass']} pass, {s['fail']} fail, "
        f"{s['skipped']} skipped" + (f" -> {path}" if path else "")
    )
    return exit_code(report)


def run_instance_payload(payload: dict) -> tuple[str, list[CheckOutcome]]:
    """Dispatch an instance file: replay, linear instance, or chart instance."""
    from . import suites

    if not isinstance(payload, dict):
        raise ValueError("instance payload must be a JSON object")
    if "replay" in payload:
        return f"replay:{payload['replay']}", [suites.run_replay(payload)]
    if "chart" in payload:
        return _run_chart_instance(payload)
    if "n" in payload:
        return _run_linear_instance(payload)
    raise ValueError(
        "unrecognized instance schema (expected 'replay', 'chart', or 'n')"
    )


def _run_linear_instance(payload: dict) -> tuple[str, list[CheckOutcome]]:
    from .dirac import (
        default_complement,
        instance_from_json,
        skew_to_json,
        subspace_to_json,
    )
    from .suites import run_check

    n, eta, G, beta = instance_from_json(payload)
    if G is None:
        G = default_complement(eta)
    battery = {
        "eta": skew_to_json(eta),
        "G": subspace_to_json(G),
        "beta": skew_to_json(beta),
    }
    return f"linear(n={n})", [run_check("linalg.lemma_battery", battery)]


def _run_chart_instance(payload: dict) -> tuple[str, list[CheckOutcome]]:
    from .suites import run_check

    label = f"presymplectic(n={payload.get('chart')})"
    build = run_check("presym.build", payload)
    if build.status == "skipped":
        return label, [build]
    outcomes = [
        build,
        run_check("dirac.graph_closedness", {"eta": payload["eta"]}),
    ]
    if payload.get("beta") is not None:
        instance = {k: payload[k] for k in ("chart", "eta", "G", "ref_point")
                    if k in payload}
        outcomes.append(run_check("presym.family_deform", {
            "instance": instance, "beta": payload["beta"], "expect_mc": None,
        }))
    return label, outcomes


def _cmd_generate(args) -> int:
    payload = generate_payload(args.kind, args.seed, args.dim, args.rank,
                               args.shear_degree)
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.kind} -> {args.out}")
    else:
        print(text)
    return 0


def generate_payload(kind: str, seed: int, dim: int, rank: int,
                     shear_degree: int) -> dict:
    from .dirac import matrix_to_json
    from .exterior import Chart, to_json
    from .presymplectic import instance_to_json
    from .randgen import (
        random_bivector_field,
        random_horizontal_form,
        random_presymplectic_instance,
        random_skew,
    )
    from .rational import MAX_EXPONENT

    chart = Chart(dim)
    if kind in ("presymplectic-instance", "horizontal-form"):
        if rank < 0 or rank > dim or rank % 2:
            raise ValueError(f"--rank must be even and in 0..{dim}, got {rank}")
        # a shear of degree D writes exponents of at most 2D - 2 in any
        # one variable, so this bound keeps the instance readable by `run`
        max_shear = MAX_EXPONENT // 2 + 1
        if not 0 <= shear_degree <= max_shear:
            raise ValueError(
                f"--shear-degree must be in 0..{max_shear}, got {shear_degree}"
            )
    rng = random.Random(f"generate:{kind}:{seed}")
    if kind == "skew-form":
        S = random_skew(rng, dim)
        return {"kind": kind, "n": dim, "matrix": matrix_to_json(S.mat)}
    if kind == "bivector-field":
        Z = random_bivector_field(rng, chart)
        return {"kind": kind, "field": to_json(Z)}
    if kind == "presymplectic-instance":
        data = random_presymplectic_instance(rng, chart, rank, shear_degree)
        return instance_to_json(data)
    if kind == "horizontal-form":
        data = random_presymplectic_instance(rng, chart, rank, shear_degree)
        form = random_horizontal_form(rng, data.K, 2)
        return {
            "kind": kind,
            "chart": dim,
            "rank": rank,
            "instance": instance_to_json(data),
            "form": to_json(form),
        }
    raise ValueError(f"unknown kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main())
