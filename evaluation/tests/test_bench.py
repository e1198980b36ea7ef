"""Unit tests for the evaluation harness (workload, cells, reports)."""

import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.query.operators.base import OperatorContext
from evaluation.experiment import (
    ALL_STRATEGIES,
    ALL_WITH_ADAPTIVE,
    build_network,
    run_cell,
)
from evaluation.report import PANELS, format_panel, render_csv, shape_check
from evaluation.sweep import sweep
from evaluation.workload import (
    JOIN_DISTANCES,
    TOP_N_SIZES,
    QueryKind,
    make_workload,
    run_query,
    run_workload,
)


@pytest.fixture(scope="module")
def corpus():
    return bible_triples(300, seed=3)


@pytest.fixture(scope="module")
def strings(corpus):
    return [str(t.value) for t in corpus]


class TestWorkload:
    def test_mix_composition(self, strings):
        queries = make_workload(strings, n_peers=64, repetitions=4, seed=1)
        assert len(queries) == 24
        top_n = [q for q in queries if q.kind is QueryKind.TOP_N]
        joins = [q for q in queries if q.kind is QueryKind.SIM_JOIN]
        assert sorted({q.parameter for q in top_n}) == list(TOP_N_SIZES)
        assert sorted({q.parameter for q in joins}) == list(JOIN_DISTANCES)

    def test_deterministic(self, strings):
        a = make_workload(strings, 64, repetitions=2, seed=9)
        b = make_workload(strings, 64, repetitions=2, seed=9)
        assert a == b

    def test_search_strings_from_corpus(self, strings):
        queries = make_workload(strings, 64, repetitions=3, seed=2)
        assert all(q.search in set(strings) for q in queries)

    def test_initiators_within_network(self, strings):
        queries = make_workload(strings, 16, repetitions=3, seed=2)
        assert all(0 <= q.initiator_id < 16 for q in queries)

    def test_run_query_charges_messages(self, corpus, strings):
        network = build_network(corpus, 32, StoreConfig(seed=1))
        ctx = OperatorContext(network)
        query = make_workload(strings, 32, repetitions=1, seed=0)[0]
        cost = run_query(ctx, TEXT_ATTRIBUTE, query, SimilarityStrategy.QSAMPLE)
        assert cost.messages > 0

    def test_run_workload_accumulates(self, corpus, strings):
        network = build_network(corpus, 32, StoreConfig(seed=1))
        ctx = OperatorContext(network)
        queries = make_workload(strings, 32, repetitions=1, seed=0)
        stats = run_workload(ctx, TEXT_ATTRIBUTE, queries, SimilarityStrategy.QSAMPLE)
        assert stats.queries == len(queries)
        assert stats.messages > 0


class TestCell:
    def test_all_strategies_present(self, corpus, strings):
        cell = run_cell(
            corpus, TEXT_ATTRIBUTE, strings, 32,
            StoreConfig(seed=1), repetitions=1,
        )
        assert set(cell.by_strategy) == set(ALL_STRATEGIES)
        for stats in cell.by_strategy.values():
            assert stats.messages > 0
        # Build time is one component of the cell's wall clock; a
        # mis-measured (e.g. zeroed-without-measuring) build would
        # break this invariant.
        assert 0 < cell.build_seconds <= cell.wall_seconds

    def test_strategy_subset(self, corpus, strings):
        cell = run_cell(
            corpus, TEXT_ATTRIBUTE, strings, 32, StoreConfig(seed=1),
            repetitions=1, strategies=(SimilarityStrategy.QSAMPLE,),
        )
        assert set(cell.by_strategy) == {SimilarityStrategy.QSAMPLE}


class TestAdaptiveCell:
    @pytest.fixture(scope="class")
    def cells(self, corpus, strings):
        """The same cell with and without the adaptive replay."""
        fixed = run_cell(
            corpus, TEXT_ATTRIBUTE, strings, 32,
            StoreConfig(seed=1), repetitions=1,
        )
        with_adaptive = run_cell(
            corpus, TEXT_ATTRIBUTE, strings, 32,
            StoreConfig(seed=1), repetitions=1,
            strategies=ALL_WITH_ADAPTIVE,
        )
        return fixed, with_adaptive

    def test_fixed_series_unchanged_by_adaptive_replay(self, cells):
        """The adaptive replay is strictly additive (runs last)."""
        fixed, with_adaptive = cells
        for strategy in ALL_STRATEGIES:
            assert with_adaptive.by_strategy[strategy].messages == (
                fixed.by_strategy[strategy].messages
            )
            assert with_adaptive.by_strategy[strategy].payload_bytes == (
                fixed.by_strategy[strategy].payload_bytes
            )

    def test_adaptive_series_recorded(self, cells):
        __, with_adaptive = cells
        adaptive = with_adaptive.by_strategy[SimilarityStrategy.ADAPTIVE]
        assert adaptive.messages > 0
        assert with_adaptive.adaptive_stats_messages > 0
        assert sum(with_adaptive.adaptive_choices.values()) > 0
        assert set(with_adaptive.adaptive_choices) <= {
            "qsamples", "qgrams", "strings",
        }

    def test_adaptive_query_reports_decisions(self, corpus, strings):
        from repro.engine import QueryEngine

        network = build_network(corpus, 32, StoreConfig(seed=1))
        engine = QueryEngine(network)
        ctx = engine.context(strategy=SimilarityStrategy.ADAPTIVE)
        query = make_workload(strings, 32, repetitions=1, seed=0)[0]
        cost = run_query(
            ctx, TEXT_ATTRIBUTE, query, SimilarityStrategy.ADAPTIVE
        )
        assert cost.decisions
        for decision in cost.decisions:
            assert decision.chosen.is_physical
            assert decision.predicted.messages > 0
            assert decision.actual_messages is not None


class TestSweepAndReport:
    @pytest.fixture(scope="class")
    def result(self, corpus, strings):
        return sweep(
            "bible", corpus, TEXT_ATTRIBUTE, strings,
            peer_counts=(16, 64), config=StoreConfig(seed=1), repetitions=1,
        )

    def test_series_lengths(self, result):
        assert result.peer_counts() == [16, 64]
        for strategy in ALL_STRATEGIES:
            assert len(result.message_series(strategy)) == 2
            assert len(result.megabyte_series(strategy)) == 2

    def test_wall_clock_accounting(self, result):
        assert result.wall_seconds > 0
        for cell in result.cells:
            assert 0 < cell.build_seconds <= cell.wall_seconds
        assert sum(c.wall_seconds for c in result.cells) <= result.wall_seconds

    def test_format_panel_contains_all_strategies(self, result):
        text = format_panel("fig1a", result)
        for strategy in ALL_STRATEGIES:
            assert strategy.value in text

    def test_format_volume_panel(self, result):
        text = format_panel("fig1b", result)
        assert "MB" in text

    def test_render_csv(self, result):
        csv_text = render_csv(result)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "dataset,peers,strategy,messages,megabytes"
        assert len(lines) == 1 + 2 * len(ALL_STRATEGIES)

    def test_panels_table_complete(self):
        assert set(PANELS) == {"fig1a", "fig1b", "fig1c", "fig1d"}

    def test_shape_check_returns_list(self, result):
        findings = shape_check(result)
        assert isinstance(findings, list)
