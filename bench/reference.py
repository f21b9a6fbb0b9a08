"""Fixed reference kernel that measures the machine's speed beside the program.

The host the benchmark runs on drifts in speed by 20% or more over minutes,
which moves wall times far more than a change to the program would.  The
kernel has three parts, each a kind of work the pipeline does: interpreted
Python, many small numpy calls, and small matrix products.  worker.py times
it after every trial and in every set-up process.  slowdown() compares each
part's median time with its time on a reference machine (NOMINAL_MS), takes
the median of the three ratios, so that one part thrown off by a state of
the host that spares the others does not move it, and raises it to the power
SENSITIVITY.  The benchmark reports each time divided by that slowdown.  The
inputs are fixed, so the kernel does the same work in every run, and it does
not call the program under test.

Passes over arrays larger than a core's cache are left out: their speed
depends on where a process's pages land, and moved such a part's median by up
to 50% from one process to the next.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Each part's median time on the 2-core machine of bench/BASELINE.md; a fixed
# scale, so values stay comparable across runs and commits.
NOMINAL_MS = {"interpreted": 4.0, "small_arrays": 3.9, "matmul": 4.4}

# The pipeline slows down by about the square root of the kernel's slowdown.
# Over 40 runs of 45 s (fleet8 and lidar4), with the kernel 1.0-1.8x slower
# than NOMINAL_MS, exponents 0.5-0.6 left the least spread between runs;
# 1.0 left up to 23%, no scaling up to 21% (bench/BASELINE.md).
SENSITIVITY = 0.5

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((64, 8))
_MAT = _rng.standard_normal((128, 128)) / 16.0


def _interpreted() -> int:
    table: dict[int, int] = {}
    total = 0
    for j in range(20000):
        table[j % 997] = table.get(j % 997, 0) + j
        total += j * 3 // 7
    return total


def _small_arrays() -> float:
    total = 0.0
    for j in range(500):
        x = _SMALL * 2.0 + 1.0
        total += float(np.max(x[:, j % 8]))
        np.argsort(x[:, 0])
    return total


def _matmul() -> float:
    y = _MAT
    for _ in range(32):
        y = np.tanh(_MAT @ y)
    return float(y[0, 0])


PARTS = {"interpreted": _interpreted, "small_arrays": _small_arrays, "matmul": _matmul}


def run() -> dict[str, float]:
    """Run the kernel once; returns each part's wall time in ms."""
    times = {}
    for name, part in PARTS.items():
        start = time.perf_counter()
        part()
        times[name] = (time.perf_counter() - start) * 1e3
    return times


def slowdown(samples: list[dict[str, float]]) -> float:
    """How much slower than on the reference machine the pipeline ran, judged by kernel samples."""
    kernel = statistics.median(
        statistics.median(s[name] for s in samples) / nominal for name, nominal in NOMINAL_MS.items()
    )
    return kernel**SENSITIVITY
