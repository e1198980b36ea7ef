"""Unit tests for the response-time estimation model."""

import pytest

from repro.core.config import SimilarityStrategy
from repro.query.operators.base import OperatorContext
from repro.query.operators.similar import similar
from evaluation.latency import LatencyEstimate, LatencyModel, estimate_similar_latency

from tests.conftest import TEXT_ATTR, build_word_network


@pytest.fixture(scope="module")
def ctx():
    return OperatorContext(build_word_network(n_peers=48))


class TestLatencyModel:
    def test_defined_in_query_cost(self, ctx):
        """The cost model's constants are the bench estimator's ones."""
        from repro.query import cost

        assert LatencyModel is cost.LatencyModel
        model = cost.StrategyCostModel(ctx.network)
        assert model.latency_model == LatencyModel()

    def test_network_time_grows_with_partitions(self):
        model = LatencyModel()
        assert model.network_time_ms(1024, 2) > model.network_time_ms(16, 2)

    def test_compute_time_linear_in_comparisons(self):
        model = LatencyModel(comparison_cost_us=100.0)
        assert model.compute_time_ms(1000) == pytest.approx(100.0)

    def test_estimate_total(self):
        estimate = LatencyEstimate(network_ms=10.0, compute_ms=5.0)
        assert estimate.total_ms == 15.0


class TestEstimateFromDiagnostics:
    def test_naive_dominated_by_local_compute(self, ctx):
        naive = similar(
            ctx, "apple", TEXT_ATTR, 2, strategy=SimilarityStrategy.NAIVE
        )
        model = LatencyModel(hop_latency_ms=1.0, comparison_cost_us=10_000.0)
        estimate = estimate_similar_latency(
            naive, ctx.network.n_partitions, model
        )
        assert estimate.compute_ms > estimate.network_ms

    def test_qgram_faster_than_naive_under_compute_pressure(self, ctx):
        """The paper's remark: naive message counts hide poor response times."""
        model = LatencyModel(comparison_cost_us=500.0)
        naive = estimate_similar_latency(
            similar(ctx, "apple", TEXT_ATTR, 2, strategy=SimilarityStrategy.NAIVE),
            ctx.network.n_partitions,
            model,
        )
        qgram = estimate_similar_latency(
            similar(ctx, "apple", TEXT_ATTR, 2, strategy=SimilarityStrategy.QGRAM),
            ctx.network.n_partitions,
            model,
        )
        assert qgram.compute_ms < naive.compute_ms

    def test_naive_extras_present(self, ctx):
        naive = similar(
            ctx, "apple", TEXT_ATTR, 1, strategy=SimilarityStrategy.NAIVE
        )
        assert naive.extras["region_peers"] > 0
        assert naive.extras["max_peer_comparisons"] > 0
        assert (
            naive.extras["max_peer_comparisons"] <= naive.candidates_verified
        )
