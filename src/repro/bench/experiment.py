"""One experiment cell: (dataset, peer count) → per-strategy cost.

A cell builds one network sized to the peer count, bulk-loads the
dataset's index entries, and replays the same workload under each of the
three strategies ("started each of the three methods successively").
The network is shared across strategies exactly as in the paper — all
index families are present regardless of which strategy queries them.

Sweeps run many cells over the *same* dataset, so the expensive
per-dataset work — q-gram decomposition, key hashing, entry construction,
the data-aware trie sample — is done once, by
:class:`~repro.overlay.incremental.PreparedDataset`; each cell then only
re-places the prepared entries onto its own trie
(:meth:`repro.overlay.network.PGridNetwork.place_entries`).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from collections import Counter

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.core.stats import QueryStats
from repro.engine import QueryEngine
from repro.overlay.incremental import IncrementalNetworkBuilder, PreparedDataset
from repro.overlay.network import PGridNetwork
from repro.storage.triple import Triple
from repro.bench.workload import WorkloadQuery, make_workload, run_workload

#: Strategy order used in reports (mirrors the figure legends).
ALL_STRATEGIES = (
    SimilarityStrategy.QSAMPLE,
    SimilarityStrategy.QGRAM,
    SimilarityStrategy.NAIVE,
)

#: The fixed strategies plus the cost-model-driven adaptive mode (the
#: ``adaptive`` series of ``BENCH_fig1.json``).
ALL_WITH_ADAPTIVE = ALL_STRATEGIES + (SimilarityStrategy.ADAPTIVE,)


@dataclass
class CellResult:
    """Per-strategy workload statistics for one (dataset, n_peers) cell."""

    n_peers: int
    by_strategy: dict[SimilarityStrategy, QueryStats] = field(default_factory=dict)
    #: Wall-clock seconds the whole cell took (build + all strategies).
    wall_seconds: float = 0.0
    #: Wall-clock seconds of network construction + entry placement alone.
    build_seconds: float = 0.0
    #: Index entries stored across all peers (replicas counted).
    total_entries: int = 0
    #: Stored payload bytes across all peers (cached per-store totals).
    stored_payload_bytes: int = 0
    #: One-off statistics-collection cost paid before the adaptive replay
    #: (kept out of the workload series so all series stay comparable).
    adaptive_stats_messages: int = 0
    adaptive_stats_bytes: int = 0
    #: How often the adaptive replay resolved to each physical strategy.
    adaptive_choices: dict[str, int] = field(default_factory=dict)

    def messages(self, strategy: SimilarityStrategy) -> int:
        return self.by_strategy[strategy].messages

    def megabytes(self, strategy: SimilarityStrategy) -> float:
        return self.by_strategy[strategy].payload_megabytes


def build_network(
    triples: Sequence[Triple], n_peers: int, config: StoreConfig
) -> PGridNetwork:
    """Build a load-balanced network and place the dataset on it."""
    return PreparedDataset.prepare(triples, config).build_network(n_peers)


def run_cell(
    triples: Sequence[Triple],
    attribute: str,
    strings: Sequence[str],
    n_peers: int,
    config: StoreConfig | None = None,
    repetitions: int = 40,
    strategies: Sequence[SimilarityStrategy] = ALL_STRATEGIES,
    workload: Sequence[WorkloadQuery] | None = None,
    prepared: PreparedDataset | None = None,
    builder: IncrementalNetworkBuilder | None = None,
    parallel_fanout: int | None = None,
) -> CellResult:
    """Run the full strategy comparison for one peer count.

    ``prepared`` short-circuits entry derivation; sweeps pass the same
    :class:`PreparedDataset` into every cell.  ``builder`` additionally
    carries trie-derivation state across cells (the incremental sweep
    engine); when given, it takes precedence over ``prepared`` for
    network construction.

    All cell wiring — the whole-workload memos, the shared verifier
    pool, the cost model behind the adaptive replay — comes from one
    :class:`~repro.engine.QueryEngine` (each acceleration is sound here
    because the cell's stores are static once loaded, and
    cost-transparent — identical message/byte series — by
    construction).

    When ``strategies`` contains ``SimilarityStrategy.ADAPTIVE`` it
    always replays *last*: it first collects per-attribute statistics
    (a routed sampling walk whose cost is recorded separately on the
    cell, not folded into the workload series) and consumes router RNG
    draws doing so — running it after the fixed strategies keeps their
    series bit-identical to an adaptive-free run.

    ``parallel_fanout`` (>= 2) turns on the engine's intra-query thread
    fan-out for per-peer delegate work; cost series are unaffected.
    """
    config = config if config is not None else StoreConfig()
    started = time.perf_counter()
    if builder is not None:
        # Time the build ourselves as well: a builder variant that
        # reports nothing must still yield a real build_seconds, not 0.0.
        build_started = time.perf_counter()
        network = builder.build(n_peers)
        build_measured = time.perf_counter() - build_started
        report = builder.last_report
        build_seconds = (
            report.build_seconds if report is not None else build_measured
        )
    else:
        if prepared is None:
            prepared = PreparedDataset.prepare(triples, config)
        # Time only construction + placement: dataset preparation is
        # per-dataset work, not part of the cell's build metric.
        build_started = time.perf_counter()
        network = prepared.build_network(n_peers)
        build_seconds = time.perf_counter() - build_started
    if workload is None:
        workload = make_workload(
            strings, network.n_peers, repetitions=repetitions, seed=config.seed
        )
    result = CellResult(n_peers=n_peers, build_seconds=build_seconds)
    # One engine per cell: the strategies replay the same workload, so
    # later strategies reuse the memos and verifier state earlier ones
    # filled.  Sharing changes wall-clock only, never a match set or a
    # message (pinned by tests).
    engine = QueryEngine(network, parallel_fanout=parallel_fanout)
    try:
        fixed = [s for s in strategies if s is not SimilarityStrategy.ADAPTIVE]
        for strategy in fixed:
            network.tracer.reset()
            ctx = engine.context(strategy=strategy)
            result.by_strategy[strategy] = run_workload(
                ctx, attribute, workload, strategy
            )
        if SimilarityStrategy.ADAPTIVE in strategies:
            _run_adaptive(engine, attribute, workload, result)
    finally:
        engine.close()
    result.wall_seconds = time.perf_counter() - started
    result.total_entries = network.total_entries()
    result.stored_payload_bytes = network.total_payload_bytes()
    return result


def _run_adaptive(
    engine: QueryEngine,
    attribute: str,
    workload: Sequence[WorkloadQuery],
    result: CellResult,
) -> None:
    """The cell's adaptive replay: collect statistics, then run.

    The one-off statistics walk is what the adaptive mode pays to become
    informed; it is recorded on the cell (``adaptive_stats_messages``)
    but kept out of the per-query workload series, which therefore stay
    directly comparable to the fixed strategies'.
    """
    from repro.query.statistics import collect_statistics

    network = engine.network
    network.tracer.reset()
    ctx = engine.context(strategy=SimilarityStrategy.ADAPTIVE)
    ctx.catalog = collect_statistics(ctx, [attribute])
    stats_snapshot = network.tracer.snapshot()
    result.adaptive_stats_messages = stats_snapshot.messages
    result.adaptive_stats_bytes = stats_snapshot.payload_bytes
    result.by_strategy[SimilarityStrategy.ADAPTIVE] = run_workload(
        ctx, attribute, workload, SimilarityStrategy.ADAPTIVE
    )
    result.adaptive_choices = dict(
        Counter(decision.chosen.value for decision in ctx.decision_log)
    )
