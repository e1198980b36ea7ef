"""Unit tests for the collected Similar variant."""

import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.core.errors import ExecutionError
from repro.engine import QueryEngine
from repro.query.operators.base import OperatorContext
from repro.query.operators.collected import similar_collected
from repro.query.operators.similar import similar
from repro.similarity.edit_distance import edit_distance

from tests.conftest import TEXT_ATTR, WORDS, build_word_network, word_triples


@pytest.fixture(scope="module")
def ctx():
    return OperatorContext(build_word_network(n_peers=48))


class TestSimilarCollected:
    @pytest.mark.parametrize(
        "strategy", [SimilarityStrategy.QGRAM, SimilarityStrategy.QSAMPLE]
    )
    @pytest.mark.parametrize("query,d", [("apple", 1), ("grape", 2), ("band", 1)])
    def test_agrees_with_delegated(self, ctx, strategy, query, d):
        collected = similar_collected(ctx, query, TEXT_ATTR, d, strategy=strategy)
        delegated = similar(ctx, query, TEXT_ATTR, d, strategy=strategy)
        assert sorted(m.matched for m in collected.matches) == sorted(
            m.matched for m in delegated.matches
        )

    def test_matches_brute_force(self, ctx):
        result = similar_collected(ctx, "cherry", TEXT_ATTR, 2)
        expected = sorted(w for w in WORDS if edit_distance("cherry", w) <= 2)
        assert sorted(m.matched for m in result.matches) == expected

    def test_verifier_comes_from_the_engine_pool(self):
        """Regression: the collected variant built its own verifier, so
        ``QueryEngine.verifier_stats()`` never saw a collected query."""
        engine = QueryEngine.build(48, word_triples(), StoreConfig(seed=7))
        before = engine.verifier_stats()["computed"]
        result = similar_collected(engine.ctx, "cherry", TEXT_ATTR, 2)
        assert engine.verifier_stats()["computed"] > before
        assert [(m.matched, m.distance) for m in result.matches] == [
            ("cherry", 0), ("berry", 2), ("merry", 2), ("ferry", 2),
        ]
        assert result.candidates_verified >= len(result.matches)

    def test_count_filter_prunes(self, ctx):
        with_filter = similar_collected(
            ctx, "bandana", TEXT_ATTR, 1, strategy=SimilarityStrategy.QGRAM
        )
        without = similar_collected(
            ctx,
            "bandana",
            TEXT_ATTR,
            1,
            strategy=SimilarityStrategy.QGRAM,
            use_count_filter=False,
        )
        assert with_filter.candidates_after_filters <= without.candidates_after_filters
        assert [m.matched for m in with_filter.matches] == [
            m.matched for m in without.matches
        ]

    def test_count_filter_skipped_for_samples(self, ctx):
        result = similar_collected(
            ctx, "bandana", TEXT_ATTR, 1, strategy=SimilarityStrategy.QSAMPLE
        )
        assert result.extras["count_filter_pruned"] == 0

    def test_schema_level(self, ctx):
        result = similar_collected(ctx, "word:textt", "", 1)
        assert {m.matched for m in result.matches} == {TEXT_ATTR}

    def test_naive_dispatch(self, ctx):
        result = similar_collected(
            ctx, "apple", TEXT_ATTR, 1, strategy=SimilarityStrategy.NAIVE
        )
        expected = sorted(w for w in WORDS if edit_distance("apple", w) <= 1)
        assert sorted(m.matched for m in result.matches) == expected

    def test_negative_distance_rejected(self, ctx):
        with pytest.raises(ExecutionError):
            similar_collected(ctx, "apple", TEXT_ATTR, -2)
