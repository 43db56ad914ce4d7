"""Summary statistics for benchmark samples: medians, tail percentiles and
ratios that keep their base."""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values, min_beyond: int = 10):
    """Highest percentile of ``PERCENTILES`` with at least ``min_beyond``
    samples above it, as ``(percentile, value)``; None when there are too few
    samples for any of them. The value is the nearest-rank order statistic."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(round(p * n / 100.0, 9))  # 1-based; rounding drops float noise
        if rank >= 1 and n - rank >= min_beyond:
            return p, float(ordered[rank - 1])
    return None


@dataclass(frozen=True)
class Ratio:
    """A ratio reported together with the count it is taken over."""

    part: float
    base: float

    @property
    def value(self) -> float:
        return self.part / self.base if self.base else 0.0

    def __str__(self) -> str:
        return f"{self.value:.6g} ({self.part:g} of {self.base:g})"
