"""Summary statistics for timing samples."""

from __future__ import annotations

import statistics
from collections import Counter

#: The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float], samples: int | None = None
         ) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it, never below the median.

    ``samples`` (at most ``len(values)``) fixes the percentile as if only
    that many samples had been taken, so runs of different lengths report
    the same percentile.
    """
    count = min(samples or len(values), len(values))
    percentile = max(50.0, 100.0 * (1.0 - TAIL_BEYOND / count))
    return percentile, quantile(values, percentile / 100.0)


def flatten(tree: dict, prefix: str = "") -> Counter:
    """Nested counter dicts as one Counter with dotted keys."""
    flat: Counter = Counter()
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, name + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] += value
    return flat
