"""Machine-speed probe that runs beside the benchmark on the same CPU.

    python3 bench/calibrate.py

Every ``PERIOD_S`` it times one fixed kernel (a Python loop plus small numpy
calls) and prints ``<perf_counter at start> <seconds>``.  ``perf_counter`` is
the system-wide monotonic clock, so the runner can line the samples up with
the passes of another process.  On a shared host a CPU's speed swings by up
to 2x over tens of seconds; since the probe shares the benchmark's CPU it
sees the same swings, and the runner rescales measured intervals by the
probe's speed over them.  The probe takes about 1% of the CPU.  It runs
until killed.
"""

from __future__ import annotations

import sys
import time

import numpy as np

PERIOD_S = 0.1


def kernel(values: np.ndarray) -> np.ndarray:
    total = 0.0
    for i in range(4500):
        total += i * 0.5
    for _ in range(75):
        values = np.sqrt(values * values + 1.0) - 0.9
    return values


def main() -> int:
    values = np.random.default_rng(0).random(2000)
    while True:
        start = time.perf_counter()
        values = kernel(values)
        sys.stdout.write(f"{start!r} {time.perf_counter() - start!r}\n")
        sys.stdout.flush()
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    sys.exit(main())
