"""Unit tests for the collected Similar variant and multi-attribute queries."""

import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.core.errors import ExecutionError
from repro.engine import QueryEngine
from repro.query.operators.base import OperatorContext
from repro.query.operators.collected import similar_collected
from repro.query.operators.multiattr import (
    StringPredicate,
    euclidean_similar,
    similar_all,
)
from repro.query.operators.similar import similar
from repro.similarity.edit_distance import edit_distance
from repro.storage.triple import Triple

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


class TestSimilarAll:
    def test_single_predicate_equals_similar(self, ctx):
        predicate = StringPredicate(TEXT_ATTR, "apple", 1)
        combined = similar_all(ctx, [predicate])
        single = similar(ctx, "apple", TEXT_ATTR, 1)
        assert {m.oid for m in combined} == {m.oid for m in single.matches}

    def test_conjunction_intersects(self, ctx):
        # Words close to both 'apple' and 'apply'.
        matches = similar_all(
            ctx,
            [
                StringPredicate(TEXT_ATTR, "apple", 1),
                StringPredicate(TEXT_ATTR, "apply", 1),
            ],
        )
        expected = {
            w
            for w in WORDS
            if edit_distance("apple", w) <= 1 and edit_distance("apply", w) <= 1
        }
        assert {m.matched for m in matches} <= {w for w in WORDS}
        assert {
            m.value_of(TEXT_ATTR) for m in matches
        } == expected

    def test_empty_intersection(self, ctx):
        matches = similar_all(
            ctx,
            [
                StringPredicate(TEXT_ATTR, "apple", 0),
                StringPredicate(TEXT_ATTR, "cherry", 0),
            ],
        )
        assert matches == []

    def test_no_predicates_rejected(self, ctx):
        with pytest.raises(ExecutionError):
            similar_all(ctx, [])


class TestEuclideanSimilar:
    @pytest.fixture(scope="class")
    def points_ctx(self):
        triples = []
        points = [(0.0, 0.0), (1.0, 1.0), (3.0, 4.0), (6.0, 8.0), (-2.0, 1.0)]
        for i, (x, y) in enumerate(points):
            oid = f"p:{i:03d}"
            triples.append(Triple(oid, "pt:x", x))
            triples.append(Triple(oid, "pt:y", y))
        from repro.core.config import StoreConfig
        from repro.overlay.network import PGridNetwork

        config = StoreConfig(seed=6)
        probe = PGridNetwork(1, config)
        sample = [e.key for e in probe.entry_factory.entries_for_all(triples)]
        network = PGridNetwork(24, config, sample_keys=sample)
        network.insert_triples(triples)
        return OperatorContext(network), points

    def test_ball_membership(self, points_ctx):
        ctx, points = points_ctx
        matches = euclidean_similar(ctx, ["pt:x", "pt:y"], (0.0, 0.0), 5.0)
        expected = sorted(
            (x**2 + y**2) ** 0.5 for x, y in points if (x**2 + y**2) ** 0.5 <= 5.0
        )
        assert [round(m.distance, 6) for m in matches] == [
            round(d, 6) for d in expected
        ]

    def test_box_corner_excluded(self, points_ctx):
        # (3,4) is inside the radius-5 box around (0,0) but at exactly
        # distance 5; (6,8) is outside both.
        ctx, __ = points_ctx
        matches = euclidean_similar(ctx, ["pt:x", "pt:y"], (0.0, 0.0), 4.9)
        oids = {m.oid for m in matches}
        assert "p:002" not in oids  # (3,4) -> distance 5.0 > 4.9
        assert "p:003" not in oids

    def test_dimension_mismatch_rejected(self, points_ctx):
        ctx, __ = points_ctx
        with pytest.raises(ExecutionError):
            euclidean_similar(ctx, ["pt:x"], (0.0, 0.0), 1.0)

    def test_full_objects_attached(self, points_ctx):
        ctx, __ = points_ctx
        matches = euclidean_similar(ctx, ["pt:x", "pt:y"], (1.0, 1.0), 0.1)
        assert matches and matches[0].triples
