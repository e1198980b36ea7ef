"""Unit and property tests for the strategy cost model (query/cost.py)."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.engine import QueryEngine
from repro.overlay.membership import MembershipManager
from repro.overlay.network import PGridNetwork
from repro.query import cost as cost_module
from repro.query.cost import (
    CANDIDATE_STRATEGIES,
    CostPrediction,
    StrategyCostModel,
    StrategyDecision,
)
from repro.query.operators.base import OperationScope, OperatorContext
from repro.query.operators.similar import similar
from repro.query.statistics import collect_statistics
from repro.similarity.edit_distance import edit_distance
from repro.storage.triple import Triple

from tests.conftest import LEN_ATTR, TEXT_ATTR, build_word_network, word_triples

ATTR = "t:v"


def build_ctx(words, n_peers, seed=2):
    config = StoreConfig(seed=seed)
    triples = [Triple(f"x:{i:03d}", ATTR, w) for i, w in enumerate(words)]
    probe = PGridNetwork(1, config)
    sample = [e.key for e in probe.entry_factory.entries_for_all(triples)]
    network = PGridNetwork(n_peers, config, sample_keys=sample)
    network.insert_triples(triples)
    return OperatorContext(network)


def test_query_layer_does_not_import_bench():
    """``query/`` sits below the evaluation package: no module of it
    imports the evaluation harness, not even lazily inside a function."""
    package = Path(cost_module.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "evaluation" for name in names):
                offenders.append(path.relative_to(package).as_posix())
    assert offenders == []


@pytest.fixture(scope="module")
def word_model_ctx():
    ctx = OperatorContext(build_word_network(n_peers=48))
    ctx.catalog = collect_statistics(ctx, [TEXT_ATTR], sample_partitions=64)
    return ctx


class TestPredictions:
    def test_all_candidates_predicted(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        predictions = model.predict_all(
            "apple", TEXT_ATTR, 1, word_model_ctx.catalog
        )
        assert set(predictions) == {s.value for s in CANDIDATE_STRATEGIES}
        for prediction in predictions.values():
            assert isinstance(prediction, CostPrediction)
            assert prediction.messages > 0
            assert prediction.payload_bytes > 0
            assert prediction.latency_ms > 0

    def test_naive_grows_with_network_fixed_grams_do_not(self):
        """The crossover driver: naive is Θ(region), grams are Θ(log)."""
        words = [f"word{i:02d}" for i in range(40)]
        small, large = (
            StrategyCostModel(build_ctx(words, n).network).predict_all(
                "word01", ATTR, 1
            )
            for n in (16, 256)
        )
        naive, gram = SimilarityStrategy.NAIVE.value, SimilarityStrategy.QGRAM.value
        naive_growth = large[naive].messages / small[naive].messages
        gram_growth = large[gram].messages / small[gram].messages
        assert naive_growth > gram_growth
        assert large[naive].messages > small[naive].messages

    def test_qsample_at_most_qgram_lookups(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        predictions = model.predict_all(
            "similarity", TEXT_ATTR, 1, word_model_ctx.catalog
        )
        qgram = predictions[SimilarityStrategy.QGRAM.value]
        qsample = predictions[SimilarityStrategy.QSAMPLE.value]
        assert qsample.messages <= qgram.messages

    def test_monotone_in_distance(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        costs = [
            model.predict_all(
                "apple", TEXT_ATTR, d, word_model_ctx.catalog
            )[SimilarityStrategy.QGRAM.value].messages
            for d in (0, 1, 2, 3)
        ]
        assert costs == sorted(costs)

    def test_adaptive_itself_not_predictable(self, word_model_ctx):
        """Adaptive is the choice among the physical strategies, not one
        of them: it gets no prediction of its own."""
        model = StrategyCostModel(word_model_ctx.network)
        predictions = model.predict_all(
            "apple", TEXT_ATTR, 1, word_model_ctx.catalog
        )
        assert SimilarityStrategy.ADAPTIVE.value not in predictions
        assert list(predictions) == [s.value for s in CANDIDATE_STRATEGIES]
        assert all(
            predictions[s.value].strategy is s for s in CANDIDATE_STRATEGIES
        )


class TestChoose:
    def test_decision_shape(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        decision = model.choose("apple", TEXT_ATTR, 1, word_model_ctx.catalog)
        assert isinstance(decision, StrategyDecision)
        assert decision.chosen in CANDIDATE_STRATEGIES
        assert decision.chosen.is_physical
        assert decision.predicted is decision.predictions[decision.chosen.value]
        assert decision.actual_messages is None
        decision.record_actual(10, 200)
        assert decision.actual_messages == 10
        assert "->" in decision.summary()

    def test_empty_statistics_fallback(self):
        """No catalog: the decision degrades to structure, still sane."""
        ctx = build_ctx(["alpha", "beta", "gamma"], 16)
        model = StrategyCostModel(ctx.network)
        decision = model.choose("alpha", ATTR, 1, catalog=None)
        assert decision.chosen.is_physical
        assert set(decision.predictions) == {
            s.value for s in CANDIDATE_STRATEGIES
        }

    def test_deterministic(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        first = model.choose("apple", TEXT_ATTR, 2, word_model_ctx.catalog)
        second = model.choose("apple", TEXT_ATTR, 2, word_model_ctx.catalog)
        assert first.chosen is second.chosen
        assert first.predicted.messages == second.predicted.messages


class TestTrieShapeTable:
    """The kept structural terms follow every change of the trie."""

    ATTRIBUTES = ("", TEXT_ATTR, LEN_ATTR, "nowhere:attr")

    @staticmethod
    def _engine(replication: int) -> QueryEngine:
        engine = QueryEngine.build(
            24, word_triples(), StoreConfig(seed=7, replication=replication)
        )
        engine.analyze([TEXT_ATTR])
        return engine

    def _assert_fresh(self, engine: QueryEngine) -> None:
        """The engine's model prices as a model built right now does."""
        catalog = engine.ctx.catalog
        fresh = StrategyCostModel(engine.network)
        for attribute in self.ATTRIBUTES:
            for s, d in (("apple", 1), ("bandana", 3)):
                kept = engine.cost_model.predict_all(s, attribute, d, catalog)
                now = fresh.predict_all(s, attribute, d, catalog)
                assert kept == now, (attribute, s, d)

    def test_splits_and_merges_refresh_the_table(self):
        engine = self._engine(replication=1)
        membership = MembershipManager(engine.network)
        self._assert_fresh(engine)  # fills the table
        first = membership.join()  # one replica per partition: a split
        self._assert_fresh(engine)
        second = membership.join()
        self._assert_fresh(engine)
        sizes = [engine.network.n_partitions]
        for peer in (second, first):  # last replicas of leaf siblings: merges
            membership.leave(peer.peer_id)
            self._assert_fresh(engine)
            sizes.append(engine.network.n_partitions)
        assert sizes == [26, 25, 24]

    def test_a_replica_join_keeps_the_table(self):
        engine = self._engine(replication=2)
        membership = MembershipManager(engine.network)
        membership.join()  # every partition full: a split
        self._assert_fresh(engine)
        shape = engine.cost_model._shape
        before = len(engine.network.partitions)
        membership.join()  # the split's newcomer is alone: a replica joins it
        assert len(engine.network.partitions) == before
        self._assert_fresh(engine)
        assert engine.cost_model._shape is shape


class TestAdaptiveOperator:
    def test_adaptive_matches_brute_force(self):
        """Whatever the model picks, results stay correct."""
        words = ["apple", "apply", "ample", "maple", "grape", "grace"]
        ctx = build_ctx(words, 24)
        ctx.strategy = SimilarityStrategy.ADAPTIVE
        result = similar(ctx, "aple", ATTR, 1)
        expected = sorted(w for w in words if edit_distance("aple", w) <= 1)
        assert sorted(m.matched for m in result.matches) == expected
        assert result.extras.get("adaptive") == 1

    def test_decision_logged_with_actuals(self):
        ctx = build_ctx(["apple", "apply", "ample"], 16)
        ctx.strategy = SimilarityStrategy.ADAPTIVE
        with OperationScope(ctx) as scope:
            assert scope.decisions == []
            similar(ctx, "apple", ATTR, 1)
        assert len(scope.decisions) == 1
        assert scope.cost.decisions == scope.decisions
        decision = scope.decisions[0]
        assert decision.search == "apple"
        assert decision.d == 1
        assert decision.actual_messages is not None
        assert decision.actual_messages > 0
        assert decision.actual_payload_bytes is not None

    def test_adaptive_without_stats_runs(self):
        """Empty-catalog fallback through the operator path."""
        ctx = build_ctx(["solo"], 8)
        ctx.strategy = SimilarityStrategy.ADAPTIVE
        result = similar(ctx, "solo", ATTR, 0)
        assert [m.matched for m in result.matches] == ["solo"]
        assert ctx.catalog is None
        assert ctx.cost_model is not None  # lazily created

    def test_collected_variant_resolves_adaptive(self):
        """The non-delegated operator resolves ADAPTIVE the same way."""
        from repro.query.operators.collected import similar_collected

        words = ["apple", "apply", "ample", "maple", "grape", "grace"]
        ctx = build_ctx(words, 24)
        ctx.strategy = SimilarityStrategy.ADAPTIVE
        with OperationScope(ctx) as scope:
            result = similar_collected(ctx, "aple", ATTR, 1)
        expected = sorted(w for w in words if edit_distance("aple", w) <= 1)
        assert sorted(m.matched for m in result.matches) == expected
        assert result.extras.get("adaptive") == 1
        assert len(scope.decisions) == 1
        assert scope.decisions[0].actual_messages is not None

    def test_from_name(self):
        assert (
            SimilarityStrategy.from_name("adaptive")
            is SimilarityStrategy.ADAPTIVE
        )


class TestRankingProperty:
    """The acceptance bound: the model's pick is never a disaster.

    On small random networks the strategy the model ranks cheapest must
    measure within 2x of the actually-cheapest strategy (plus a small
    absolute slack for degenerate, single-digit-message cases).
    """

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="abcdef", min_size=2, max_size=10),
            min_size=4,
            max_size=16,
            unique=True,
        ),
        st.integers(min_value=8, max_value=48),
        st.integers(min_value=0, max_value=2),
    )
    def test_predicted_ranking_tracks_measured_messages(
        self, words, n_peers, d
    ):
        ctx = build_ctx(words, n_peers)
        ctx.catalog = collect_statistics(ctx, [ATTR], sample_partitions=8)
        model = StrategyCostModel(ctx.network)
        query = words[0]
        decision = model.choose(query, ATTR, d, ctx.catalog)
        tracer = ctx.network.tracer
        measured = {}
        for strategy in CANDIDATE_STRATEGIES:
            before = tracer.snapshot()
            similar(ctx, query, ATTR, d, initiator_id=0, strategy=strategy)
            measured[strategy] = before.delta(tracer.snapshot()).messages
        best = min(measured.values())
        assert measured[decision.chosen] <= 2 * best + 16
