"""Numeric similarity — distance-to-interval mapping (Section 4).

"For similarity queries on numerical attributes we map the provided
similarity measure to a corresponding interval and process them as range
queries."  With the one-dimensional Euclidean distance ``|x - v|``, the
predicate ``dist(x, v) <= d`` is exactly the interval ``[v - d, v + d]``.

For multi-attribute numeric similarity the Euclidean ball is covered by
its bounding box: one interval per attribute, intersected after retrieval
(:func:`euclidean_box`), with the exact distance verified locally.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.errors import QueryError


def absolute_distance(x: float, y: float) -> float:
    """One-dimensional Euclidean distance."""
    return abs(float(x) - float(y))


def euclidean_distance(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Euclidean distance between equal-length numeric vectors."""
    if len(xs) != len(ys):
        raise QueryError(
            f"euclidean distance needs equal dimensions: {len(xs)} vs {len(ys)}"
        )
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(xs, ys)))


@dataclass(frozen=True)
class Interval:
    """A closed numeric interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise QueryError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def width(self) -> float:
        return self.hi - self.lo


def similarity_interval(center: float, distance: float) -> Interval:
    """The interval equivalent to ``dist(x, center) <= distance``."""
    if distance < 0:
        raise QueryError(f"similarity distance must be >= 0, got {distance}")
    return Interval(center - distance, center + distance)


def euclidean_box(center: Sequence[float], distance: float) -> list[Interval]:
    """Bounding-box cover of a Euclidean ball (one interval per dimension).

    Every point within Euclidean ``distance`` of ``center`` lies inside the
    box; the converse does not hold, so callers must verify the exact
    distance on the retrieved candidates.
    """
    if distance < 0:
        raise QueryError(f"similarity distance must be >= 0, got {distance}")
    return [similarity_interval(float(c), distance) for c in center]
