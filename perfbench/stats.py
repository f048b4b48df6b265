"""Summary statistics for benchmark samples.

Timings are reported as a median with the spread between the first and
third quartile (the same quartiles ``statistics.quantiles(values, n=4)``
gives), plus the highest standard percentile that still has at least
ten samples beyond it, so a tail figure is never read off one or two
outliers.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        only = median(values)
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr_share(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def nearest_rank(n: int, percentile: float) -> int:
    """1-based rank of ``percentile`` among ``n`` sorted samples (the
    nearest-rank definition: the smallest sample with at least
    ``percentile`` percent of the samples at or below it)."""
    return max(1, math.ceil(n * percentile / 100.0 - 1e-9))


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)`` for the highest percentile in
    :data:`TAIL_PERCENTILES` with at least :data:`MIN_BEYOND` samples
    beyond it, or ``None`` when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = nearest_rank(n, pct)
        if n - rank >= MIN_BEYOND:
            return pct, float(ordered[rank - 1])
    return None


def describe(values) -> dict:
    """Median, quartiles, IQR share, tail and sample count."""
    values = list(values)
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": q2,
        "q1": q1,
        "q3": q3,
        "iqr_share": iqr_share(values),
        "tail": tail(values),
    }
