"""Order statistics shared by the runs and by ``compare``."""

from __future__ import annotations

import math
import statistics

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(ordered: list[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of an ascending, non-empty list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(ordered: list[float], q: float = 0.99) -> tuple[float, str]:
    """The ``q``-quantile if ``MIN_BEYOND`` samples lie beyond it, else the maximum.

    Returns the value and a label saying which of the two it is.
    """
    beyond = len(ordered) - math.ceil(q * len(ordered))
    if beyond >= MIN_BEYOND:
        return nearest_rank(ordered, q), f"p{q * 100:g}"
    return ordered[-1], "max"


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
