"""Summary statistics for op timings."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def tail_percentile(samples):
    """The 90th percentile (linear interpolation) and how many samples lie
    strictly beyond it.

    A tail percentile is trusted only with at least ``MIN_BEYOND``
    samples beyond it; callers report the count next to the value so a
    run too short for that shows as such.
    """
    value = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return value, sum(1 for s in samples if s > value)
