"""Peer-count sweeps — the x-axis of Figure 1.

A sweep runs one experiment cell per peer count and collects, for every
strategy, the two series the paper plots: total messages and total data
volume of the whole workload.

A sweep prepares its dataset once
(:class:`~repro.overlay.incremental.PreparedDataset`); each cell builds
its own network from it, and each cell's workload runs with
whole-workload naive-broadcast memoization.  Both are equivalence-
preserving — measured message/byte series are bit-identical to lone,
unmemoized cells.  Cells run one after another, in the order of
``peer_counts``.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.config import SimilarityStrategy, StoreConfig, env_flag
from repro.storage.triple import Triple
from repro.overlay.incremental import PreparedDataset
from evaluation.experiment import ALL_STRATEGIES, CellResult, run_cell

#: Default peer counts (log-spaced, scaled down from the paper's
#: 100..100000 so the default run finishes in minutes; see --full).
DEFAULT_PEER_COUNTS = (128, 512, 2048, 8192)

#: The paper's peer counts (log scale 100 .. 100000).
PAPER_PEER_COUNTS = (100, 1_000, 10_000, 100_000)

#: Environment variable that switches benchmarks to paper scale.
FULL_SCALE_ENV = "REPRO_FULL_SCALE"


def full_scale() -> bool:
    """True when the environment requests paper-scale runs.

    Parsed with :func:`repro.core.config.env_flag`, so ``False``/``no``/
    ``off`` (any casing or whitespace) disable it and unrecognized
    values raise instead of silently enabling a 100 000-peer run.
    """
    return env_flag(FULL_SCALE_ENV)


@dataclass
class SweepResult:
    """All cells of one dataset sweep."""

    dataset: str
    cells: list[CellResult] = field(default_factory=list)
    #: Wall-clock seconds of the whole sweep, dataset preparation
    #: excluded: the sum of the cells plus the loop around them.
    wall_seconds: float = 0.0

    def peer_counts(self) -> list[int]:
        return [cell.n_peers for cell in self.cells]

    def message_series(self, strategy: SimilarityStrategy) -> list[int]:
        return [cell.messages(strategy) for cell in self.cells]

    def megabyte_series(self, strategy: SimilarityStrategy) -> list[float]:
        return [cell.megabytes(strategy) for cell in self.cells]


def sweep(
    dataset: str,
    triples: Sequence[Triple],
    attribute: str,
    strings: Sequence[str],
    peer_counts: Sequence[int] = DEFAULT_PEER_COUNTS,
    config: StoreConfig | None = None,
    repetitions: int = 40,
    strategies: Sequence[SimilarityStrategy] = ALL_STRATEGIES,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the strategy comparison across peer counts.

    Entry derivation and the data-aware trie sample happen once, up
    front (:class:`PreparedDataset`); each cell then builds its network
    from that dataset, and each cell's workload runs with the
    engine's cost-transparent accelerations (the whole-workload memos
    and the shared verifier pool).

    Including ``SimilarityStrategy.ADAPTIVE`` in ``strategies`` (e.g.
    :data:`~evaluation.experiment.ALL_WITH_ADAPTIVE`) adds the
    cost-model-driven replay to every cell; it always runs last, so the
    fixed series stay bit-identical to an adaptive-free sweep.
    """
    config = config if config is not None else StoreConfig()
    prepared = PreparedDataset.prepare(triples, config)
    started = time.perf_counter()
    result = SweepResult(dataset=dataset)
    for n_peers in peer_counts:
        if progress is not None:
            progress(f"{dataset}: {n_peers} peers ...")
        cell = run_cell(
            (),
            attribute,
            strings,
            n_peers,
            config=config,
            repetitions=repetitions,
            strategies=strategies,
            prepared=prepared,
        )
        result.cells.append(cell)
        if progress is not None:
            parts = ", ".join(f"{s.value}={cell.messages(s)}" for s in strategies)
            progress(
                f"{dataset}: {n_peers} peers -> messages: {parts} "
                f"(build {cell.build_seconds:.1f}s)"
            )
    result.wall_seconds = time.perf_counter() - started
    return result
