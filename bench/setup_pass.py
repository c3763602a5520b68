"""One set-up of a benchmark workload, run in a fresh process.

    python3 bench/setup_pass.py SEEDS TRIALS SUITE [SUITE ...]

Imports the program from ``src/`` and draws every payload of the given
suites at each of the comma-separated seeds once, through the same
``suites._suite_workload`` call that ``run_suite`` makes before it executes
a check.  That pass also fills the lazily built MC and deform bundles.  The
caller times the whole process, interpreter start included.  Exits 1 when a
generator raised.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from diracdeform import suites  # noqa: E402
from diracdeform.report import SuiteConfig  # noqa: E402


def main(argv: list[str]) -> int:
    seeds, trials, names = [int(s) for s in argv[0].split(",")], int(argv[1]), argv[2:]
    errors = []
    for seed in seeds:
        for suite in names:
            work = suites._suite_workload(SuiteConfig(suite, trials=trials, seed=seed))
            errors += [f"{suite} seed {seed}: {name}: {payload!r}"
                       for name, payload in work if isinstance(payload, Exception)]
    for error in errors:
        print(f"generator error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
