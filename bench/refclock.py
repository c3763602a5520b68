"""The benchmark's reference clock, run as a helper process.

    python3 bench/refclock.py

Reads one whole number n per line from standard input.  For each, it runs
the reference unit once to warm up, then n times, and writes the mean
seconds of one unit as one line to standard output.  It exits at the end of
its input.  run.py starts it before it imports the program and keeps it for
the whole run, so nothing the program does to its own process (a thread, a
profiling hook, a timer signal, a fragmented heap) reaches this clock.  The
garbage collector stays off here.
"""

import gc
import sys
import time
from fractions import Fraction


def reference_unit() -> None:
    """Fixed pure-Python work shaped like the program's inner loops: a
    product of two polynomials held as dicts from exponent tuples to
    Fractions."""
    f = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in f.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2


def main() -> None:
    gc.disable()
    for line in sys.stdin:
        n = int(line)
        reference_unit()
        t0 = time.perf_counter()
        for _ in range(n):
            reference_unit()
        sys.stdout.write(f"{(time.perf_counter() - t0) / n!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
