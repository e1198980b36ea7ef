"""Order statistics shared by the workloads and the report."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartile_distance(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0.0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    first, __, third = statistics.quantiles(values, n=4)
    return third - first


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
