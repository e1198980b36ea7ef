"""Peer-count sweeps — the x-axis of Figure 1.

A sweep runs one experiment cell per peer count and collects, for every
strategy, the two series the paper plots: total messages and total data
volume of the whole workload.

Sweeps run on the incremental engine: one
:class:`~repro.overlay.incremental.IncrementalNetworkBuilder` (derived
from the sweep's shared :class:`~repro.bench.experiment.PreparedDataset`)
grows each cell's network from the trie-derivation state of the previous
cells instead of rebuilding from scratch, and each cell's workload runs
with whole-workload naive-broadcast memoization.  Both are equivalence-
preserving — measured message/byte series are bit-identical to a
from-scratch, unmemoized run.

Cells of one sweep are *independent*: every (dataset, peer count) pair
builds its own network from its own seed and replays its own workload,
so :class:`ParallelSweepRunner` can dispatch them to worker processes
(``jobs > 1``) and reassemble bit-identical series — the serial
:func:`run_sweep_job` path stays the property-tested reference.  The
parallel unit is the whole cell, never a single strategy: strategies
within a cell share the network's router RNG sequentially, and splitting
them would change the draw order and with it the measured series.
"""

from __future__ import annotations

import time
import traceback
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from repro.core.config import SimilarityStrategy, StoreConfig, env_flag
from repro.storage.triple import Triple
from repro.overlay.incremental import IncrementalNetworkBuilder, PreparedDataset
from repro.bench.experiment import ALL_STRATEGIES, CellResult, run_cell

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


class SweepCellError(RuntimeError):
    """One sweep cell failed inside a worker process.

    Raised by the parallel runner with the *original* worker traceback
    embedded, so a failing cell aborts the sweep loudly (no silently
    missing series points) and debuggably.  Picklable by construction —
    ``__reduce__`` re-creates it from its three fields, which a plain
    multi-argument exception subclass would fail at when crossing the
    process boundary.
    """

    def __init__(self, dataset: str, n_peers: int | None, worker_traceback: str):
        self.dataset = dataset
        self.n_peers = n_peers
        self.worker_traceback = worker_traceback
        where = f"at {n_peers} peers" if n_peers is not None else "during setup"
        super().__init__(
            f"sweep cell of dataset {dataset!r} {where} failed in a "
            f"worker process; original traceback:\n{worker_traceback}"
        )

    def __reduce__(self):
        return (SweepCellError, (self.dataset, self.n_peers, self.worker_traceback))


@dataclass
class SweepResult:
    """All cells of one dataset sweep."""

    dataset: str
    cells: list[CellResult] = field(default_factory=list)
    #: Wall-clock seconds the whole sweep took, end to end.  Under the
    #: parallel runner this is bounded by the slowest worker chunk, not
    #: the sum of cells — the one number parallelism is allowed to
    #: change (measured message/byte series are bit-identical by
    #: construction and pinned by property tests).
    wall_seconds: float = 0.0

    def peer_counts(self) -> list[int]:
        return [cell.n_peers for cell in self.cells]

    def message_series(self, strategy: SimilarityStrategy) -> list[int]:
        return [cell.messages(strategy) for cell in self.cells]

    def megabyte_series(self, strategy: SimilarityStrategy) -> list[float]:
        return [cell.megabytes(strategy) for cell in self.cells]


@dataclass(frozen=True)
class SweepJob:
    """Everything one dataset sweep needs, in picklable form.

    The parallel runner ships jobs (with their :class:`PreparedDataset`
    embedded — its entries and key codec are plain data) to worker
    processes; the serial path runs the very same object through
    :func:`run_sweep_job`, so both modes consume one description.
    """

    dataset: str
    attribute: str
    strings: tuple[str, ...]
    peer_counts: tuple[int, ...]
    prepared: PreparedDataset
    repetitions: int = 40
    strategies: tuple[SimilarityStrategy, ...] = ALL_STRATEGIES

    @classmethod
    def from_dataset(
        cls,
        dataset: str,
        triples: Sequence[Triple],
        attribute: str,
        strings: Sequence[str],
        peer_counts: Sequence[int] = DEFAULT_PEER_COUNTS,
        config: StoreConfig | None = None,
        **options,
    ) -> "SweepJob":
        """Prepare ``triples`` once and wrap the sweep description."""
        config = config if config is not None else StoreConfig()
        return cls(
            dataset=dataset,
            attribute=attribute,
            strings=tuple(strings),
            peer_counts=tuple(peer_counts),
            prepared=PreparedDataset.prepare(triples, config),
            **options,
        )

    def _run_cell(self, n_peers: int, builder) -> CellResult:
        return run_cell(
            (),
            self.attribute,
            self.strings,
            n_peers,
            config=self.prepared.config,
            repetitions=self.repetitions,
            strategies=self.strategies,
            prepared=self.prepared,
            builder=builder,
        )


def run_sweep_job(
    job: SweepJob,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Serial reference runner: one builder, cells in peer-count order.

    This is the path the parallel runner is property-tested against —
    its series define what "bit-identical" means for ``jobs > 1``.
    """
    started = time.perf_counter()
    result = SweepResult(dataset=job.dataset)
    builder = IncrementalNetworkBuilder(job.prepared)
    for n_peers in job.peer_counts:
        if progress is not None:
            progress(f"{job.dataset}: {n_peers} peers ...")
        cell = job._run_cell(n_peers, builder)
        result.cells.append(cell)
        if progress is not None:
            progress(_cell_summary(job, cell))
    result.wall_seconds = time.perf_counter() - started
    return result


def _cell_summary(job: SweepJob, cell: CellResult) -> str:
    parts = ", ".join(
        f"{s.value}={cell.messages(s)}" for s in job.strategies
    )
    return (
        f"{job.dataset}: {cell.n_peers} peers -> messages: {parts} "
        f"(build {cell.build_seconds:.1f}s)"
    )


def _run_sweep_chunk(
    job: SweepJob, cell_indices: tuple[int, ...]
) -> list[tuple[int, CellResult]]:
    """Worker-process entry point: run one chunk of a job's cells.

    Each chunk gets its own :class:`IncrementalNetworkBuilder` (the trie
    count cache is per-process state) and its indices arrive in
    increasing peer-count order, so the builder only ever grows.  Any
    failure is re-raised as a picklable :class:`SweepCellError` carrying
    the full formatted traceback — the parent's view of a worker crash
    must never degrade to a bare, context-free exception.
    """
    n_peers: int | None = None
    try:
        builder = IncrementalNetworkBuilder(job.prepared)
        chunk: list[tuple[int, CellResult]] = []
        for index in cell_indices:
            n_peers = job.peer_counts[index]
            chunk.append((index, job._run_cell(n_peers, builder)))
        return chunk
    except Exception:
        raise SweepCellError(
            job.dataset, n_peers, traceback.format_exc()
        ) from None


class ParallelSweepRunner:
    """Dispatch sweep cells to a process pool; reassemble exact series.

    Cells are partitioned into at most ``jobs`` chunks per dataset via
    ``indices[i::n_chunks]`` — every chunk sees *increasing* peer counts,
    so each worker's private incremental builder grows monotonically just
    like the serial sweep's.  Chunks from all submitted jobs share one
    pool, so a two-dataset sweep keeps every worker busy instead of
    draining dataset barriers.

    Failure semantics are loud by contract: the first failing chunk
    cancels everything still pending and re-raises its
    :class:`SweepCellError` (original worker traceback included); a
    sweep never returns with silently missing series points.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError(f"parallel sweep needs jobs >= 2, got {jobs}")
        self.jobs = jobs

    def run(
        self,
        sweep_jobs: Sequence[SweepJob],
        progress: Callable[[str], None] | None = None,
    ) -> list[SweepResult]:
        """Run every job's cells across the pool; results in job order."""
        started = time.perf_counter()
        results = [
            SweepResult(
                dataset=job.dataset,
                cells=[None] * len(job.peer_counts),  # type: ignore[list-item]
            )
            for job in sweep_jobs
        ]
        finished_at = [started] * len(sweep_jobs)
        tasks: list[tuple[int, tuple[int, ...]]] = []
        for job_index, job in enumerate(sweep_jobs):
            n_cells = len(job.peer_counts)
            n_chunks = min(self.jobs, n_cells)
            for i in range(n_chunks):
                tasks.append((job_index, tuple(range(i, n_cells, n_chunks))))
        if progress is not None:
            progress(
                f"parallel sweep: {len(tasks)} chunks across "
                f"{self.jobs} worker processes"
            )
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                pool.submit(_run_sweep_chunk, sweep_jobs[job_index], chunk):
                    job_index
                for job_index, chunk in tasks
            }
            pending = set(futures)
            try:
                while pending:
                    done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                    for future in done:
                        job_index = futures[future]
                        for index, cell in future.result():
                            results[job_index].cells[index] = cell
                            if progress is not None:
                                progress(
                                    _cell_summary(sweep_jobs[job_index], cell)
                                )
                        finished_at[job_index] = time.perf_counter()
            except BaseException:
                # Loud failure: drop everything not yet running, let the
                # original (traceback-carrying) error propagate.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        for job_index, result in enumerate(results):
            result.wall_seconds = finished_at[job_index] - started
        return results


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
    jobs: int = 1,
) -> SweepResult:
    """Run the strategy comparison across peer counts.

    Entry derivation and the data-aware trie sample happen once, up
    front (:class:`PreparedDataset`); each cell's network is then grown
    by an incremental builder, and each cell's workload runs with the
    engine's cost-transparent accelerations (the whole-workload memos
    and the shared verifier pool).

    ``jobs > 1`` dispatches cells to a :class:`ParallelSweepRunner`
    process pool; it changes wall-clock only — every measured series is
    bit-identical to the serial reference (property-tested).

    Including ``SimilarityStrategy.ADAPTIVE`` in ``strategies`` (e.g.
    :data:`~repro.bench.experiment.ALL_WITH_ADAPTIVE`) adds the
    cost-model-driven replay to every cell; it always runs last, so the
    fixed series stay bit-identical to an adaptive-free sweep.
    """
    job = SweepJob.from_dataset(
        dataset,
        triples,
        attribute,
        strings,
        peer_counts=peer_counts,
        config=config,
        repetitions=repetitions,
        strategies=tuple(strategies),
    )
    if jobs > 1:
        return ParallelSweepRunner(jobs).run([job], progress)[0]
    return run_sweep_job(job, progress)
