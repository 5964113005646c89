"""Order statistics shared by the runner, the tracer and ``compare.py``.

Only the standard library: the runner's parent process imports this
module before it has checked that the program's sources exist.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles considered for a timing's tail, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: Sequence[float], beyond: int = 10) -> tuple[float, float] | None:
    """``(q, value)`` for the highest percentile with ``beyond`` samples above it.

    A p99 from 200 samples rests on two of them; reporting it would be
    reporting noise.  Returns None when not even the median qualifies.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        # Rounded: 1 - 0.999 is not exactly 0.001 in binary floating point.
        if round(n * (100.0 - q) / 100.0, 6) >= beyond:
            return q, percentile(values, q)
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
