"""Unit tests for the Similar operator (Algorithm 2), all strategies."""

import pytest

from repro.core.config import SimilarityStrategy
from repro.core.errors import ExecutionError
from repro.query.operators.base import OperatorContext
from repro.query.operators.similar import similar
from repro.similarity.edit_distance import edit_distance

from tests.conftest import TEXT_ATTR, WORDS, build_word_network


@pytest.fixture(scope="module")
def ctx():
    return OperatorContext(build_word_network(n_peers=48))


def brute_force(query, d):
    return sorted(w for w in WORDS if edit_distance(query, w) <= d)


GRAM_STRATEGIES = [SimilarityStrategy.QGRAM, SimilarityStrategy.QSAMPLE]
ALL = GRAM_STRATEGIES + [SimilarityStrategy.NAIVE]


class TestInstanceLevel:
    @pytest.mark.parametrize("strategy", ALL)
    @pytest.mark.parametrize("query,d", [
        ("apple", 1), ("apple", 2), ("grape", 1), ("band", 2),
        ("cherry", 2), ("overlay", 1), ("overlay", 2),
    ])
    def test_matches_brute_force(self, ctx, strategy, query, d):
        result = similar(ctx, query, TEXT_ATTR, d, strategy=strategy)
        assert sorted(m.matched for m in result.matches) == brute_force(query, d)

    @pytest.mark.parametrize("strategy", ALL)
    def test_no_matches_for_distant_string(self, ctx, strategy):
        result = similar(ctx, "zzzzzzzz", TEXT_ATTR, 1, strategy=strategy)
        assert result.matches == []

    @pytest.mark.parametrize("strategy", ALL)
    def test_exact_match_d_zero(self, ctx, strategy):
        result = similar(ctx, "banana", TEXT_ATTR, 0, strategy=strategy)
        assert [m.matched for m in result.matches] == ["banana"]
        assert result.matches[0].distance == 0

    def test_matches_carry_complete_objects(self, ctx):
        result = similar(ctx, "apple", TEXT_ATTR, 0)
        match = result.matches[0]
        attributes = {t.attribute for t in match.triples}
        assert attributes == {TEXT_ATTR, "word:len"}

    def test_results_sorted_by_distance(self, ctx):
        result = similar(ctx, "apple", TEXT_ATTR, 2)
        distances = [m.distance for m in result.matches]
        assert distances == sorted(distances)

    def test_negative_distance_rejected(self, ctx):
        with pytest.raises(ExecutionError):
            similar(ctx, "apple", TEXT_ATTR, -1)

    def test_unknown_attribute_empty(self, ctx):
        result = similar(ctx, "apple", "word:nosuch", 2)
        assert result.matches == []


class TestSchemaLevel:
    @pytest.mark.parametrize("strategy", ALL)
    def test_finds_attribute_names(self, ctx, strategy):
        result = similar(ctx, "word:textt", "", 1, strategy=strategy)
        matched = {m.matched for m in result.matches}
        assert matched == {TEXT_ATTR}

    def test_distance_zero_schema(self, ctx):
        result = similar(ctx, "word:len", "", 0)
        assert all(m.matched == "word:len" for m in result.matches)
        assert len(result.matches) == len(WORDS)


class TestCostCharacteristics:
    def test_qsample_cheaper_than_qgram(self, ctx):
        tracer = ctx.network.tracer
        tracer.reset()
        similar(ctx, "bandana", TEXT_ATTR, 2, strategy=SimilarityStrategy.QGRAM)
        qgram_cost = tracer.message_count
        tracer.reset()
        similar(ctx, "bandana", TEXT_ATTR, 2, strategy=SimilarityStrategy.QSAMPLE)
        qsample_cost = tracer.message_count
        assert qsample_cost < qgram_cost

    def test_diagnostics_populated(self, ctx):
        result = similar(ctx, "apple", TEXT_ATTR, 2)
        assert result.grams_looked_up > 0
        assert result.gram_partitions_contacted > 0
        assert result.candidates_after_filters >= len(result.matches)

    def test_messages_charged(self, ctx):
        ctx.network.tracer.reset()
        similar(ctx, "apple", TEXT_ATTR, 1)
        assert ctx.network.tracer.message_count > 0
        assert ctx.network.tracer.payload_bytes > 0

    def test_filters_reduce_candidates(self):
        from repro.similarity.filters import FilterConfig

        network = build_word_network(n_peers=48)
        with_filters = OperatorContext(network, filters=FilterConfig())
        without = OperatorContext(
            network, filters=FilterConfig(use_position=False, use_length=False)
        )
        a = similar(with_filters, "apple", TEXT_ATTR, 1)
        b = similar(without, "apple", TEXT_ATTR, 1)
        assert a.candidates_after_filters <= b.candidates_after_filters
        # Correctness is unaffected either way.
        assert [m.matched for m in a.matches] == [m.matched for m in b.matches]
