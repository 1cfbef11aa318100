"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence

TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def percentile_tail(values: Sequence[float], pct: float | None = None) -> tuple[float, float]:
    """(percentile, value). Without pct, the highest of TAIL_PERCENTILES
    that has at least ten samples beyond it, else the median. (0, 0.0)
    for no samples."""
    if not values:
        return 0, 0.0
    if pct is None:
        n = len(values)
        pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), 50)
    return pct, percentile(values, pct)
