"""Sweeps: the serial runner, its series, and the paper-scale env flag.

The standing invariant under test: how a sweep is run (one prepared
dataset across cells, a dataset already prepared by an earlier sweep)
changes wall-clock numbers *only* — every measured message/byte series
is bit-identical to cells run alone.
"""

import pytest

from repro.core.config import (
    ConfigError,
    SimilarityStrategy,
    StoreConfig,
    env_flag,
)
from repro.core.stats import QueryStats
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.overlay.incremental import PreparedDataset
from evaluation.experiment import ALL_WITH_ADAPTIVE, run_cell
from evaluation.sweep import full_scale, sweep


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


class TestBuildSeconds:
    """``build_seconds`` times construction and placement only."""

    def test_prepared_cell_times_its_build(self, corpus, strings):
        config = StoreConfig(seed=1)
        cell = run_cell(
            (), TEXT_ATTRIBUTE, strings, 16, config,
            repetitions=1,
            strategies=(SimilarityStrategy.QSAMPLE,),
            prepared=PreparedDataset.prepare(corpus, config),
        )
        assert 0 < cell.build_seconds <= cell.wall_seconds

    def test_unprepared_cell_times_its_build(self, corpus, strings):
        cell = run_cell(
            corpus, TEXT_ATTRIBUTE, strings, 16, StoreConfig(seed=1),
            repetitions=1,
            strategies=(SimilarityStrategy.QSAMPLE,),
        )
        assert 0 < cell.build_seconds <= cell.wall_seconds


class TestSerialSweep:
    """One dataset, cells in the order given, series equal to lone cells."""

    PEERS = (16, 32, 48)
    CONFIG = StoreConfig(seed=1)

    def run(self, corpus, strings, **options):
        options.setdefault("peer_counts", self.PEERS)
        return sweep(
            "bible", corpus, TEXT_ATTRIBUTE, strings,
            config=self.CONFIG, repetitions=1,
            strategies=ALL_WITH_ADAPTIVE, **options,
        )

    @pytest.fixture(scope="class")
    def first(self, corpus, strings):
        return self.run(corpus, strings)

    def test_cells_in_peer_count_order(self, first):
        assert first.peer_counts() == list(self.PEERS)

    def test_cells_follow_the_given_order(self, corpus, strings):
        result = self.run(corpus, strings, peer_counts=(32, 16))
        assert result.peer_counts() == [32, 16]

    def test_wall_seconds_recorded(self, first):
        assert first.wall_seconds > 0
        assert sum(c.wall_seconds for c in first.cells) <= first.wall_seconds

    def test_every_cell_times_its_build(self, first):
        assert all(0 < c.build_seconds <= c.wall_seconds for c in first.cells)

    def test_cells_equal_cells_run_alone(self, corpus, strings, first):
        """Building every cell from one prepared dataset changes nothing
        measured."""
        for cell in first.cells:
            alone = run_cell(
                corpus, TEXT_ATTRIBUTE, strings, cell.n_peers, self.CONFIG,
                repetitions=1, strategies=ALL_WITH_ADAPTIVE,
            )
            assert cell_key(alone) == cell_key(cell), cell.n_peers

    def test_second_sweep_over_a_warm_dataset_is_equal(
        self, corpus, strings, first
    ):
        """A second sweep in the same process, over a dataset that is
        already prepared and alive (held here), measures the same."""
        warm = PreparedDataset.prepare(corpus, self.CONFIG)
        second = self.run(corpus, strings)
        assert PreparedDataset.prepare(corpus, self.CONFIG) is warm
        assert [cell_key(c) for c in second.cells] == (
            [cell_key(c) for c in first.cells]
        )

    def test_progress_reports_each_cell_in_order(self, corpus, strings):
        lines = []
        self.run(corpus, strings, peer_counts=(16, 32), progress=lines.append)
        assert len(lines) == 4
        assert lines[0] == "bible: 16 peers ..."
        assert lines[1].startswith("bible: 16 peers -> messages: qsamples=")
        assert lines[2] == "bible: 32 peers ..."
        assert "adaptive=" in lines[3]

    def test_jobs_keyword_rejected(self, corpus, strings):
        with pytest.raises(TypeError):
            self.run(corpus, strings, jobs=2)


def cell_key(cell) -> tuple:
    """Every non-timing field of a cell, comparable."""
    return (
        cell.n_peers,
        tuple(
            (strategy, stats_key(stats))
            for strategy, stats in cell.by_strategy.items()
        ),
        cell.total_entries,
        cell.stored_payload_bytes,
        cell.adaptive_stats_messages,
        cell.adaptive_stats_bytes,
        cell.adaptive_choices,
    )
