"""The evaluation workload of Section 6.

"In each test we processed a mix of 6 queries initiated 40 times.  The
set consists of three top-N queries, filtering the N = 5, 10, 15 nearest
neighbors to a provided search string (up to a maximal distance of 5),
and three similarity self-joins over one column.  The joins are processed
with a maximal join distance of d = 1, 2, 3 on the chosen column.  In
each run we chose the initiating peer as well as the search string (from
the set of all strings) of each query randomly and started each of the
three methods successively."

The self-joins are *anchored* at the chosen search string (left side =
objects matching it), the reading consistent with the paper's per-query
random search string and reported cost magnitudes — see DESIGN.md §4.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.config import SimilarityStrategy
from repro.core.stats import QueryStats
from repro.overlay.messages import CostReport
from repro.query.operators.base import OperationScope, OperatorContext
from repro.query.operators.simjoin import anchored_sim_join
from repro.query.operators.topn import TOP_N_MAX_DISTANCE, top_n_string_nn

#: The paper's parameters (the top-N radius is ``TOP_N_MAX_DISTANCE``).
TOP_N_SIZES = (5, 10, 15)
JOIN_DISTANCES = (1, 2, 3)
DEFAULT_REPETITIONS = 40


class QueryKind(enum.Enum):
    TOP_N = "topn"
    SIM_JOIN = "simjoin"


@dataclass(frozen=True)
class WorkloadQuery:
    """One query instance: kind, parameter, search string, initiator."""

    kind: QueryKind
    parameter: int  # N for top-N, d for joins
    search: str
    initiator_id: int


def make_workload(
    strings: Sequence[str],
    n_peers: int,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
) -> list[WorkloadQuery]:
    """The 6-query mix, ``repetitions`` times, with fresh random choices.

    The same workload instance is replayed for each strategy ("started
    each of the three methods successively"), keeping the comparison
    paired.
    """
    rng = random.Random(seed)
    queries: list[WorkloadQuery] = []
    for __ in range(repetitions):
        for n in TOP_N_SIZES:
            queries.append(
                WorkloadQuery(
                    QueryKind.TOP_N,
                    n,
                    rng.choice(strings),
                    rng.randrange(n_peers),
                )
            )
        for d in JOIN_DISTANCES:
            queries.append(
                WorkloadQuery(
                    QueryKind.SIM_JOIN,
                    d,
                    rng.choice(strings),
                    rng.randrange(n_peers),
                )
            )
    return queries


def run_query(
    ctx: OperatorContext,
    attribute: str,
    query: WorkloadQuery,
    strategy: SimilarityStrategy,
) -> CostReport:
    """Execute one workload query under a strategy; returns its cost.

    The query runs in one :class:`OperationScope` on ``ctx``, so the
    returned :class:`CostReport` is the one the engine would record for
    it — including the adaptive-mode decisions taken while it ran (one
    per ``Similar`` probe: deepening rounds and join probes each decide).
    """
    with OperationScope(ctx) as scope:
        if query.kind is QueryKind.TOP_N:
            top_n_string_nn(
                ctx,
                attribute,
                query.search,
                query.parameter,
                max_distance=TOP_N_MAX_DISTANCE,
                initiator_id=query.initiator_id,
                strategy=strategy,
            )
        else:
            anchored_sim_join(
                ctx,
                attribute,
                query.search,
                attribute,
                query.parameter,
                initiator_id=query.initiator_id,
                strategy=strategy,
            )
    return scope.cost


def run_workload(
    ctx: OperatorContext,
    attribute: str,
    queries: Sequence[WorkloadQuery],
    strategy: SimilarityStrategy,
) -> QueryStats:
    """Run the whole mix under one strategy, accumulating cost."""
    stats = QueryStats()
    for query in queries:
        stats.record(run_query(ctx, attribute, query, strategy))
    return stats
