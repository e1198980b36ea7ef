"""Numeric similarity — distance-to-interval mapping (Section 4).

"For similarity queries on numerical attributes we map the provided
similarity measure to a corresponding interval and process them as range
queries."  With the one-dimensional Euclidean distance ``|x - v|``, the
predicate ``dist(x, v) <= d`` is exactly the interval ``[v - d, v + d]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import QueryError


def absolute_distance(x: float, y: float) -> float:
    """One-dimensional Euclidean distance."""
    return abs(float(x) - float(y))


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
