"""Order statistics for the benchmark's timings (standard library only)."""

from __future__ import annotations

import math

# A reported percentile must have at least this many samples above it.
TAIL_SAMPLES = 10


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics at position
    (n - 1) * q, the rule of statistics.quantiles(method="inclusive")."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def samples_beyond(n: int, percent: int) -> int:
    """Samples strictly above the interpolation position of a percentile."""
    return n - 1 - ((n - 1) * percent) // 100


def max_tail_percentile(n: int, cap: int = 90):
    """The highest whole percentile up to cap with TAIL_SAMPLES samples
    beyond it, or None when n is too small for any."""
    for percent in range(cap, 49, -1):
        if samples_beyond(n, percent) >= TAIL_SAMPLES:
            return percent
    return None
