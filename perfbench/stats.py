"""Order statistics shared by the benchmark's sample and run scripts."""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond it). With fewer than 20
    samples no ladder step qualifies and the median stands in for the tail.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= 10:
            return pct, percentile(values, pct), beyond
    return 50.0, statistics.median(values), n // 2
