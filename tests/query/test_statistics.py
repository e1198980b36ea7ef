"""Unit tests for statistics collection and cost-based planning."""

import pytest

from repro.core.errors import QueryError
from repro.query.operators.base import OperatorContext
from repro.query.parser import parse
from repro.query.planner import AccessMethod, plan
from repro.query.statistics import (
    AttributeStatistics,
    collect_statistics,
)

from tests.conftest import LEN_ATTR, TEXT_ATTR, WORDS, build_word_network


@pytest.fixture(scope="module")
def ctx():
    return OperatorContext(build_word_network(n_peers=48))


@pytest.fixture(scope="module")
def catalog(ctx):
    return collect_statistics(ctx, [TEXT_ATTR, LEN_ATTR], sample_partitions=64)


class TestCollection:
    def test_row_counts_exact_with_full_sampling(self, catalog):
        assert catalog.get(TEXT_ATTR).row_count == len(WORDS)
        assert catalog.get(LEN_ATTR).row_count == len(WORDS)

    def test_distinct_estimate(self, catalog):
        assert catalog.get(TEXT_ATTR).distinct_estimate == len(set(WORDS))

    def test_numeric_bounds(self, catalog):
        stats = catalog.get(LEN_ATTR)
        assert stats.numeric_min == min(len(w) for w in WORDS)
        assert stats.numeric_max == max(len(w) for w in WORDS)
        assert stats.is_numeric

    def test_string_attribute_shape(self, catalog):
        stats = catalog.get(TEXT_ATTR)
        assert not stats.is_numeric
        expected_mean = sum(len(w) for w in WORDS) / len(WORDS)
        assert stats.mean_string_length == pytest.approx(expected_mean, rel=0.01)

    def test_histogram_sums_to_rows(self, catalog):
        stats = catalog.get(LEN_ATTR)
        assert sum(stats.histogram) >= stats.numeric_rows

    def test_sampling_costs_messages(self, ctx):
        ctx.network.tracer.reset()
        collect_statistics(ctx, [TEXT_ATTR], sample_partitions=2)
        assert ctx.network.tracer.snapshot().by_phase.get("stats", 0) > 0

    def test_sampled_extrapolation_close(self, ctx):
        sampled = collect_statistics(ctx, [TEXT_ATTR], sample_partitions=3)
        rows = sampled.get(TEXT_ATTR).row_count
        assert rows == pytest.approx(len(WORDS), rel=1.5)

    def test_invalid_sample_count(self, ctx):
        with pytest.raises(QueryError):
            collect_statistics(ctx, [TEXT_ATTR], sample_partitions=0)


class TestSelectivityEstimators:
    def _stats(self):
        return AttributeStatistics(
            attribute="a",
            row_count=1000,
            distinct_estimate=100,
            numeric_min=0.0,
            numeric_max=100.0,
            histogram=[62] * 16,
            numeric_rows=1000,
        )

    def test_equality(self):
        assert self._stats().estimate_equality_rows() == 10.0

    def test_range_full_span(self):
        stats = self._stats()
        assert stats.estimate_range_rows(0.0, 100.0) == pytest.approx(
            sum(stats.histogram)
        )

    def test_range_partial(self):
        stats = self._stats()
        half = stats.estimate_range_rows(0.0, 50.0)
        assert half == pytest.approx(sum(stats.histogram) / 2, rel=0.1)

    def test_range_outside(self):
        assert self._stats().estimate_range_rows(200.0, 300.0) == 0.0

    def test_similarity_monotone_in_d(self):
        stats = self._stats()
        stats.mean_string_length = 8.0
        assert (
            stats.estimate_similarity_rows(0)
            <= stats.estimate_similarity_rows(1)
            <= stats.estimate_similarity_rows(3)
        )

    def test_similarity_capped_at_rows(self):
        stats = self._stats()
        stats.mean_string_length = 8.0
        assert stats.estimate_similarity_rows(5) <= stats.row_count


class TestCostBasedPlanning:
    def test_estimates_annotated(self, catalog):
        plan_ = plan(
            parse(
                f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
                "FILTER (dist(?w,'apple') <= 1) }"
            ),
            catalog,
        )
        assert plan_.steps[0].estimated_rows is not None
        assert "rows" in plan_.explain()

    def test_selective_range_ordered_before_loose_similarity(self, catalog):
        # A very narrow range (few rows) should run before a broad d=3
        # similarity predicate under cost-based ordering.
        plan_ = plan(
            parse(
                f"SELECT ?w,?l WHERE {{ (?o,{TEXT_ATTR},?w) (?o,{LEN_ATTR},?l) "
                "FILTER (?l >= 8) FILTER (?l <= 8) "
                "FILTER (dist(?w,'apple') <= 3) }"
            ),
            catalog,
        )
        assert plan_.steps[0].method is AccessMethod.RANGE

    def test_tight_similarity_ordered_before_wide_range(self, catalog):
        # Exact-ish similarity (d=0) beats a whole-domain range.
        plan_ = plan(
            parse(
                f"SELECT ?w,?l WHERE {{ (?o,{TEXT_ATTR},?w) (?o,{LEN_ATTR},?l) "
                "FILTER (?l >= 0) FILTER (dist(?w,'apple') <= 0) }"
            ),
            catalog,
        )
        assert plan_.steps[0].method is AccessMethod.STRING_SIMILARITY

    def test_without_catalog_static_ranks(self):
        plan_ = plan(
            parse(
                f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
                "FILTER (dist(?w,'apple') <= 1) }"
            )
        )
        assert plan_.steps[0].estimated_rows is None

    def test_store_analyze_roundtrip(self, word_store):
        catalog = word_store.analyze([TEXT_ATTR, LEN_ATTR])
        assert word_store.catalog is catalog
        text = word_store.explain(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        assert "rows" in text
        word_store.catalog = None  # leave shared fixture unchanged
