"""Parallel execution properties: sweeps, fan-out, env flags, failures.

The standing invariant under test: parallelism (worker processes for
sweep cells, thread fan-out for per-peer work inside a query) changes
wall-clock numbers *only* — every measured message/byte series is
bit-identical to the serial reference path.
"""

import pickle

import pytest

from repro.core.config import (
    ConfigError,
    SimilarityStrategy,
    StoreConfig,
    env_flag,
)
from repro.core.stats import QueryStats
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.engine import QueryEngine
from repro.overlay.fanout import FanOutExecutor
from repro.overlay.faults import FaultPlan
from repro.overlay.messages import MessageTracer, MessageType
from repro.overlay.network import PGridNetwork
from repro.bench.experiment import (
    ALL_WITH_ADAPTIVE,
    PreparedDataset,
    run_cell,
)
from repro.bench.sweep import (
    ParallelSweepRunner,
    SweepCellError,
    SweepJob,
    full_scale,
    run_sweep_job,
    sweep,
)


@pytest.fixture(scope="module")
def corpus():
    return bible_triples(250, seed=3)


@pytest.fixture(scope="module")
def strings(corpus):
    return [str(t.value) for t in corpus]


def stats_key(stats: QueryStats) -> tuple:
    """Everything a strategy's series is made of, comparable."""
    return (
        stats.queries,
        stats.messages,
        stats.payload_bytes,
        tuple(sorted(stats.by_type.items())),
        tuple(sorted(stats.by_phase.items())),
    )


class TestEnvFlagNormalization:
    """REPRO_FULL_SCALE=False must not silently enable paper scale."""

    @pytest.mark.parametrize(
        "raw", ["0", "false", "False", "FALSE", "no", "No", "off", " false "]
    )
    def test_false_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FULL_SCALE", raw)
        assert not full_scale()

    @pytest.mark.parametrize(
        "raw", ["1", "true", "True", "TRUE", "yes", "on", " ON "]
    )
    def test_true_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FULL_SCALE", raw)
        assert full_scale()

    def test_unset_and_empty_are_false(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert not full_scale()
        monkeypatch.setenv("REPRO_FULL_SCALE", "")
        assert not full_scale()

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "definitely")
        with pytest.raises(ConfigError, match="REPRO_FULL_SCALE"):
            full_scale()

    def test_env_flag_default(self, monkeypatch):
        monkeypatch.delenv("SOME_UNSET_FLAG", raising=False)
        assert env_flag("SOME_UNSET_FLAG") is False
        assert env_flag("SOME_UNSET_FLAG", default=True) is True


class TestBuildSecondsFallback:
    """A builder without reports must still yield a measured build time."""

    def test_reportless_builder_measures_fallback(self, corpus, strings):
        config = StoreConfig(seed=1)
        prepared = PreparedDataset.prepare(corpus, config)

        class ReportlessBuilder:
            last_report = None

            def build(self, n_peers):
                return prepared.build_network(n_peers)

        cell = run_cell(
            (), TEXT_ATTRIBUTE, strings, 16, config,
            repetitions=1,
            strategies=(SimilarityStrategy.QSAMPLE,),
            prepared=prepared,
            builder=ReportlessBuilder(),
        )
        assert 0 < cell.build_seconds <= cell.wall_seconds


class TestParallelSweep:
    """jobs=2 must reproduce the serial sweep's series byte for byte."""

    PEERS = (16, 32, 48)

    @pytest.fixture(scope="class")
    def job(self, corpus, strings):
        return SweepJob.from_dataset(
            "bible", corpus, TEXT_ATTRIBUTE, strings,
            peer_counts=self.PEERS,
            config=StoreConfig(seed=1),
            repetitions=1,
            strategies=ALL_WITH_ADAPTIVE,
        )

    @pytest.fixture(scope="class")
    def serial(self, job):
        return run_sweep_job(job)

    @pytest.fixture(scope="class")
    def parallel(self, job):
        return ParallelSweepRunner(2).run([job])[0]

    def test_job_is_picklable(self, job):
        clone = pickle.loads(pickle.dumps(job))
        assert clone.dataset == job.dataset
        assert clone.peer_counts == job.peer_counts
        assert len(clone.prepared.entries) == len(job.prepared.entries)

    def test_cells_in_peer_count_order(self, parallel):
        assert parallel.peer_counts() == list(self.PEERS)

    def test_series_bit_identical(self, serial, parallel):
        for strategy in ALL_WITH_ADAPTIVE:
            assert parallel.message_series(strategy) == (
                serial.message_series(strategy)
            ), strategy
            assert parallel.megabyte_series(strategy) == (
                serial.megabyte_series(strategy)
            ), strategy

    def test_full_stats_identical_per_cell(self, serial, parallel):
        for ser_cell, par_cell in zip(serial.cells, parallel.cells):
            assert set(ser_cell.by_strategy) == set(par_cell.by_strategy)
            for strategy in ser_cell.by_strategy:
                assert stats_key(par_cell.by_strategy[strategy]) == (
                    stats_key(ser_cell.by_strategy[strategy])
                ), (ser_cell.n_peers, strategy)
            assert par_cell.total_entries == ser_cell.total_entries
            assert par_cell.stored_payload_bytes == (
                ser_cell.stored_payload_bytes
            )
            assert par_cell.adaptive_stats_messages == (
                ser_cell.adaptive_stats_messages
            )
            assert par_cell.adaptive_choices == ser_cell.adaptive_choices

    def test_wall_seconds_recorded(self, serial, parallel):
        assert serial.wall_seconds > 0
        assert parallel.wall_seconds > 0

    def test_sweep_facade_dispatches_jobs(self, corpus, strings, serial):
        via_facade = sweep(
            "bible", corpus, TEXT_ATTRIBUTE, strings,
            peer_counts=self.PEERS, config=StoreConfig(seed=1),
            repetitions=1, strategies=ALL_WITH_ADAPTIVE, jobs=2,
        )
        for strategy in ALL_WITH_ADAPTIVE:
            assert via_facade.message_series(strategy) == (
                serial.message_series(strategy)
            )

    def test_runner_rejects_single_job_count(self):
        with pytest.raises(ValueError, match="jobs >= 2"):
            ParallelSweepRunner(1)


class CrashingSweepJob(SweepJob):
    """Crashes deterministically at one peer count.

    Module-level so worker processes can unpickle it.  An injected crash
    (rather than a marginal ``key_bits`` that can't address the trie)
    keeps the failing cell independent of hash-seed-sensitive workload
    details — only the loud-failure plumbing is under test here.
    """

    CRASH_PEERS = 512

    def _run_cell(self, n_peers, builder):
        if n_peers == self.CRASH_PEERS:
            raise RuntimeError("injected cell crash")
        return super()._run_cell(n_peers, builder)


class TestWorkerFailure:
    """A crashing cell must fail the sweep loudly, traceback included."""

    def failing_job(self, corpus, strings):
        return CrashingSweepJob.from_dataset(
            "bible", corpus, TEXT_ATTRIBUTE, strings,
            peer_counts=(8, 512),
            config=StoreConfig(seed=1),
            repetitions=1,
            strategies=(SimilarityStrategy.QSAMPLE,),
        )

    def test_parallel_failure_is_loud_and_attributed(self, corpus, strings):
        job = self.failing_job(corpus, strings)
        with pytest.raises(SweepCellError) as excinfo:
            ParallelSweepRunner(2).run([job])
        error = excinfo.value
        assert error.dataset == "bible"
        assert error.n_peers == 512
        # The original worker traceback must survive the process hop.
        assert "Traceback" in error.worker_traceback
        assert "injected cell crash" in error.worker_traceback
        assert "Traceback" in str(error)

    def test_error_pickles_round_trip(self):
        error = SweepCellError("bible", 512, "Traceback: boom")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.dataset == "bible"
        assert clone.n_peers == 512
        assert clone.worker_traceback == "Traceback: boom"


class TestFanOutExecutor:
    def test_min_workers_enforced(self):
        with pytest.raises(ValueError):
            FanOutExecutor(1)

    def test_map_ordered_preserves_order(self):
        with FanOutExecutor(4) as fanout:
            assert fanout.map_ordered(lambda x: x * x, range(20)) == [
                x * x for x in range(20)
            ]

    def test_map_ordered_propagates_errors(self):
        def boom(x):
            raise RuntimeError(f"unit {x}")

        with FanOutExecutor(2) as fanout:
            with pytest.raises(RuntimeError, match="unit"):
                fanout.map_ordered(boom, range(4))

    def test_run_traced_merges_in_submission_order(self):
        tracer = MessageTracer(record_log=True)
        reference = MessageTracer(record_log=True)
        for i in range(6):
            reference.send(MessageType.BROADCAST, 0, i, i * 10, phase="p")

        def task_for(i):
            def task(scratch):
                scratch.send(MessageType.BROADCAST, 0, i, i * 10, phase="p")
                return i
            return task

        with FanOutExecutor(3) as fanout:
            results = fanout.run_traced(tracer, [task_for(i) for i in range(6)])
        assert results == list(range(6))
        assert tracer.log == reference.log
        assert tracer.message_count == reference.message_count
        assert tracer.payload_bytes == reference.payload_bytes

    def test_run_traced_failure_leaves_tracer_unchanged(self):
        tracer = MessageTracer()

        def bad(scratch):
            scratch.send(MessageType.BROADCAST, 0, 1, 5, phase="p")
            raise RuntimeError("charged then failed")

        with FanOutExecutor(2) as fanout:
            with pytest.raises(RuntimeError):
                fanout.run_traced(tracer, [bad, bad])
        assert tracer.message_count == 0
        assert tracer.payload_bytes == 0


class TestEngineFanOut:
    """Intra-query fan-out: identical series, identical verbose logs."""

    def build_engine(self, corpus, fanout, record_log=False):
        config = StoreConfig(seed=1)
        prepared = PreparedDataset.prepare(corpus, config)
        network = PGridNetwork(
            48, config, sample_keys=prepared.sample_keys,
            tracer=MessageTracer(record_log=record_log),
        )
        network.place_entries(prepared.entries)
        return QueryEngine(network, parallel_fanout=fanout)

    def run_queries(self, engine, install_noop_faults=False):
        if install_noop_faults:
            engine.install_faults(FaultPlan.none())
        observed = []
        for strategy in ("qgram", "qsample", "naive"):
            engine.similar("beginning", TEXT_ATTRIBUTE, 2, strategy=strategy)
            cost = engine.last_cost()
            observed.append(
                (
                    strategy,
                    cost.messages,
                    cost.payload_bytes,
                    tuple(sorted(cost.by_type.items())),
                    tuple(sorted(cost.by_phase.items())),
                )
            )
        return observed

    @pytest.mark.parametrize("noop_faults", [False, True])
    def test_costs_identical_to_serial(self, corpus, noop_faults):
        with self.build_engine(corpus, None) as serial_engine:
            serial = self.run_queries(serial_engine, noop_faults)
        with self.build_engine(corpus, 3) as fanned_engine:
            assert fanned_engine.fanout is not None
            fanned = self.run_queries(fanned_engine, noop_faults)
        assert fanned == serial

    def test_verbose_logs_identical_to_serial(self, corpus):
        """Per-message logs (sender, receiver, order) match exactly."""
        with self.build_engine(corpus, None, record_log=True) as serial_engine:
            self.run_queries(serial_engine)
            serial_log = list(serial_engine.network.tracer.log)
        with self.build_engine(corpus, 3, record_log=True) as fanned_engine:
            self.run_queries(fanned_engine)
            fanned_log = list(fanned_engine.network.tracer.log)
        assert fanned_log == serial_log

    def test_matches_identical_to_serial(self, corpus):
        with self.build_engine(corpus, None) as serial_engine:
            serial = serial_engine.similar(
                "beginning", TEXT_ATTRIBUTE, 2, strategy="naive"
            )
        with self.build_engine(corpus, 4) as fanned_engine:
            fanned = fanned_engine.similar(
                "beginning", TEXT_ATTRIBUTE, 2, strategy="naive"
            )
        assert [(m.oid, m.distance) for m in fanned.matches] == (
            [(m.oid, m.distance) for m in serial.matches]
        )

    def test_cell_with_fanout_identical(self, corpus, strings):
        serial = run_cell(
            corpus, TEXT_ATTRIBUTE, strings, 32,
            StoreConfig(seed=1), repetitions=1,
            strategies=ALL_WITH_ADAPTIVE,
        )
        fanned = run_cell(
            corpus, TEXT_ATTRIBUTE, strings, 32,
            StoreConfig(seed=1), repetitions=1,
            strategies=ALL_WITH_ADAPTIVE, parallel_fanout=3,
        )
        for strategy in ALL_WITH_ADAPTIVE:
            assert stats_key(fanned.by_strategy[strategy]) == (
                stats_key(serial.by_strategy[strategy])
            ), strategy
