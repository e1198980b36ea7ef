"""Aggregated statistics over queries and workloads.

:class:`QueryStats` accumulates the per-query :class:`CostReport` deltas a
store or benchmark produces, exposing the two figures the paper plots —
total messages and total data volume — plus per-phase breakdowns that the
ablation benchmarks use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.overlay.messages import CostReport


@dataclass
class QueryStats:
    """Running totals across a sequence of queries."""

    queries: int = 0
    messages: int = 0
    payload_bytes: int = 0
    by_type: Counter = field(default_factory=Counter)
    by_phase: Counter = field(default_factory=Counter)

    def record(self, cost: CostReport) -> None:
        """Fold one query's cost into the totals."""
        self.queries += 1
        self.messages += cost.messages
        self.payload_bytes += cost.payload_bytes
        self.by_type.update(cost.by_type)
        self.by_phase.update(cost.by_phase)

    @property
    def payload_megabytes(self) -> float:
        return self.payload_bytes / 1_000_000.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.queries} queries, {self.messages} messages, "
            f"{self.payload_megabytes:.3f} MB"
        )
