"""The benchmark's one set of summary statistics.

Every figure the benchmark prints goes through these helpers, so a
median, a quartile or a tail means the same thing for every workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; below that it is a handful of outliers, not a tail.
MIN_BEYOND_TAIL = 10


def median(values: Sequence[float]) -> float:
    """The median; raises on an empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """``{"q1", "median", "q3", "iqr_share"}`` as ``statistics.quantiles``
    computes them (exclusive method, ``n=4``).

    ``iqr_share`` is the interquartile distance as a share of the
    median, the spread the benchmark's bounds are stated in.
    """
    if len(values) < 2:
        only = median(values)
        return {"q1": only, "median": only, "q3": only, "iqr_share": 0.0}
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return {
        "q1": q1,
        "median": mid,
        "q3": q3,
        "iqr_share": (q3 - q1) / mid if mid else math.inf,
    }


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (nearest rank), or None when fewer than
    :data:`MIN_BEYOND_TAIL` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"tail quantile must be in (0, 1), got {q}")
    n = len(values)
    rank = math.ceil(q * n)
    if n - rank < MIN_BEYOND_TAIL:
        return None
    return sorted(values)[rank - 1]


def min_samples_for_tail(q: float) -> int:
    """The fewest samples for which :func:`tail` reports ``q``."""
    n = MIN_BEYOND_TAIL
    while tail(range(n), q) is None:
        n += 1
    return n


def geomean(values: Sequence[float]) -> float:
    """The geometric mean of positive values."""
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def regressed(new: float, old: float, bound: float, better: str) -> bool:
    """Whether ``new`` is worse than ``old`` by more than ``bound``
    (a share of ``old``)."""
    if better == "lower":
        return new > old * (1.0 + bound)
    return new < old * (1.0 - bound)
