"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes; process CPU time drifts with wall
time, so the slowdown is slower execution, not waiting for a CPU. A
fixed reference kernel, which no change to the program can touch, is
timed between the program's calls. Each timing is then rescaled to the
speed at which the kernel takes REF_MS:

    scaled = wall * REF_MS / kernel_ms

The kernel mixes what the program spends its time on: an interpreted
Python loop, many small numpy calls (the rollout and value-fit loops) and
dense BLAS work (the score tables, einsums and solves). The kernel and
REF_MS are part of the benchmark; change them only together with every
parent figure that is compared against.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference speed: scaled times are what the program takes when a
# kernel sample takes REF_MS. On the machine described in README.md the
# median sample of a run took 2.2-4.0 ms, so scaled times read 0.6-1.1
# times wall times there.
REF_MS = 2.5
# A calibration sample is the median of this many kernel runs. The median
# tracks the program's speed better than the fastest run does: over 500
# calls timed between samples, the spread of rescaled call times was
# 0.08-0.11 with the median of three and 0.09-0.14 with the fastest
# (see "Machine noise" in README.md).
REPEATS = 3

_V = np.arange(8.0)
_M = np.random.default_rng(0).standard_normal((96, 96)) / 10.0


def kernel() -> float:
    s = 0
    for i in range(8_000):
        s += i * i % 7
    acc = np.zeros((8, 8))
    for _ in range(300):
        acc += 0.5 * np.outer(_V, _V)
    m = _M
    for _ in range(20):
        m = np.tanh(m @ _M)
    return s + float(acc[0, 0]) + float(m[0, 0])


def sample_ms(repeats: int = REPEATS) -> float:
    """Milliseconds of the median of `repeats` kernel runs."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return 1000.0 * statistics.median(times)


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that rescales a timing taken between two calibration samples."""
    return REF_MS / (0.5 * (before_ms + after_ms))
