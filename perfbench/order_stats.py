"""Order statistics shared by the workload process and run.py."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it: the eleventh-largest value. Below 20 samples that percentile is
    under the median, so the maximum is returned as the 100th instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, float(ordered[-1])
    return 100.0 * (n - 10) / n, float(ordered[n - 11])
