"""Timing summaries: medians, supported tail percentiles, quartile spreads."""

from __future__ import annotations

import statistics

import numpy as np

#: Samples a tail percentile needs beyond it before it is reported.
TAIL_SUPPORT = 10


def supported_percentile(count: int, target: float = 99.0, beyond: int = TAIL_SUPPORT) -> float:
    """Highest whole percentile up to ``target`` with ``beyond`` samples above it.

    With too few samples for any tail, the median (50) is returned: the sample
    then supports no statement about the tail at all.
    """
    if count <= 0:
        raise ValueError("a percentile needs at least one sample")
    highest = 100 * (count - beyond) // count
    return float(min(target, max(50, highest)))


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    return float(np.percentile(values, pct))


def summarize(values, target: float = 99.0) -> dict:
    """Median, the supported tail percentile and its value, and the sample count."""
    tail = supported_percentile(len(values), target)
    return {
        "p50": percentile(values, 50.0),
        "tail_pct": tail,
        "tail": percentile(values, tail),
        "n": len(values),
    }


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
