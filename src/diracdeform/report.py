"""Suite configuration and JSON report assembly.

Reports are deterministic given the seed: wall-clock data lives only in the
segregated `wall_ms` / `generated_at` fields, which `comparable` strips.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Any

from .exterior import MAX_CHART_DIM
from .rational import rational_from_str


class InvalidConfigError(ValueError):
    pass


DEFAULT_GRID = ("0", "1/2", "-1/3")


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    dim: int | None = None
    trials: int = 25
    seed: int = 0
    max_form_degree: int = 3
    max_coef_degree: int = 2
    grid_coords: tuple[str, ...] = DEFAULT_GRID
    report_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidConfigError("trials must be >= 1")
        if self.dim is not None and not 1 <= self.dim <= MAX_CHART_DIM:
            raise InvalidConfigError(f"dimension must be in 1..{MAX_CHART_DIM}")
        if self.max_form_degree < 0 or self.max_coef_degree < 0:
            raise InvalidConfigError("degree bounds must be nonnegative")
        for c in self.grid_coords:
            try:
                rational_from_str(c)
            except ValueError as exc:
                raise InvalidConfigError(f"bad grid coordinate {c!r}: {exc}") from exc

    def to_json(self) -> dict:
        out = asdict(self)
        out["grid_coords"] = list(self.grid_coords)
        return out


@dataclass
class CheckOutcome:
    name: str
    status: str  # pass | fail | skipped
    detail: str = ""
    counterexample: dict | None = None
    wall_ms: float = 0.0
    witness: dict | None = None

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def assemble_report(kind: str, label: str, config: dict,
                    outcomes: list[CheckOutcome]) -> dict:
    summary = {"pass": 0, "fail": 0, "skipped": 0}
    for o in outcomes:
        summary[o.status] += 1
    return {
        kind: label,
        "config": config,
        "checks": [o.to_json() for o in outcomes],
        "summary": summary,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def comparable(report: dict) -> dict:
    """The deterministic part of a report (timing fields removed)."""
    out = dict(report)
    out.pop("generated_at", None)
    out["checks"] = [
        {k: v for k, v in chk.items() if k != "wall_ms"}
        for chk in report.get("checks", [])
    ]
    return out


def default_report_dir() -> str:
    return os.environ.get("DIRACDEFORM_REPORT_DIR", ".")


def write_report(report: dict, path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path) and os.sep not in path:
        path = os.path.join(default_report_dir(), path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")
    return path


def exit_code(report: dict) -> int:
    return 1 if report["summary"]["fail"] else 0
