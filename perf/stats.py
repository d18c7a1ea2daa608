"""Medians, percentiles and the tail rule the reports use.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it — a p99 over 300 samples rests
on three points and is not reported.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["percentile", "median", "tail_percentile"]

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * (q / 100.0)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with >= 10 of *n* samples beyond
    it, or None when even p90 has fewer."""
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return None
