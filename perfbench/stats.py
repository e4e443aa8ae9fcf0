"""Summary statistics for timing samples."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
BEYOND = 10


def tail(samples: Sequence[float], beyond: int = BEYOND) -> Optional[tuple[float, float]]:
    """(level, value) of the highest percentile in LEVELS that still has at
    least ``beyond`` samples above it (nearest-rank), or None when even the
    median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for level in LEVELS:
        rank = max(1, -(-round(level * 10) * n // 1000))  # ceil(level% of n), exactly
        if n - rank >= beyond:
            best = (level, ordered[rank - 1])
    return best


def summary(samples: Sequence[float]) -> dict:
    """Median, tail percentile and sample count of one metric."""
    found = tail(samples)
    return {
        "median": statistics.median(samples),
        "n": len(samples),
        "tail_level": found[0] if found else None,
        "tail": found[1] if found else None,
    }

