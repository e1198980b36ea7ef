"""Integration tests for the QueryEngine facade (engine.py)."""

import gc
import inspect
import pickle
import weakref

import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.core.errors import ReproError
from repro.engine import QueryEngine
from repro.overlay.faults import FaultPlan
from repro.storage.triple import Triple

from tests.conftest import LEN_ATTR, TEXT_ATTR, WORDS, word_triples


@pytest.fixture()
def engine():
    return QueryEngine.build(32, word_triples(), StoreConfig(seed=7))


@pytest.fixture()
def adaptive_engine():
    engine = QueryEngine.build(
        32, word_triples(), StoreConfig(seed=7), strategy="adaptive"
    )
    engine.analyze([TEXT_ATTR])
    return engine


class TestFacade:
    def test_build_and_query(self, engine):
        result = engine.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        assert {row["w"] for row in result.rows} >= {"apple", "apply"}
        assert result.cost.messages > 0

    def test_strategy_string_accepted(self):
        engine = QueryEngine.build(8, strategy="qsample")
        assert engine.ctx.strategy is SimilarityStrategy.QSAMPLE

    def test_owns_all_memos_and_pool(self, engine):
        assert engine.naive_memo is not None
        assert engine.gram_scan_memo is not None
        assert engine.fetch_memo is not None
        assert engine.verifier_pool is not None
        assert engine.cost_model is not None

    def test_memoize_master_switch(self):
        engine = QueryEngine.build(8, memoize=False)
        assert engine.naive_memo is None
        assert engine.gram_scan_memo is None
        assert engine.fetch_memo is None

    def test_pool_installed_without_memos(self):
        engine = QueryEngine.build(8, memoize=False)
        assert engine.verifier_pool is not None
        assert engine.verifier_stats()["shared_pool"] is True

    def test_accepts_exactly_three_options(self):
        params = list(inspect.signature(QueryEngine.__init__).parameters)
        assert params == ["self", "network", "strategy", "memoize"]

    @pytest.mark.parametrize(
        "option",
        [
            "memo_maintenance", "naive_sample_rate", "memoize_naive",
            "memoize_gram_scans", "memoize_fetches", "share_verifiers",
            "catalog", "latency_model", "parallel_fanout",
            "verifier_pool_limit", "edit_kernel",
        ],
    )
    def test_removed_option_rejected(self, option):
        with pytest.raises(TypeError):
            QueryEngine.build(8, **{option: None})

    def test_holds_no_resources(self, engine):
        """No threads, executors or locks: nothing to close, and a used
        engine pickles round-trip and answers the same."""
        assert not hasattr(engine, "close")
        first = engine.similar("apple", TEXT_ATTR, 1, strategy="qgram")
        clone = pickle.loads(pickle.dumps(engine))
        again = clone.similar("apple", TEXT_ATTR, 1, strategy="qgram")
        assert [m.oid for m in again.matches] == [m.oid for m in first.matches]

    def test_context_shares_engine_wiring(self, engine):
        ctx = engine.context(strategy=SimilarityStrategy.QGRAM)
        assert ctx.naive_memo is engine.naive_memo
        assert ctx.gram_scan_memo is engine.gram_scan_memo
        assert ctx.fetch_memo is engine.fetch_memo
        assert ctx.verifier_pool is engine.verifier_pool
        assert ctx.cost_model is engine.cost_model
        assert ctx.strategy is SimilarityStrategy.QGRAM

    def test_context_accepts_strategy_name(self, engine):
        ctx = engine.context(strategy="strings")
        assert ctx.strategy is SimilarityStrategy.NAIVE


class TestAnalyze:
    def test_analyze_installs_catalog(self, engine):
        # A fresh engine starts with an empty (but shared) catalog, so
        # contexts handed out before the first analyze see later stats.
        assert engine.catalog is not None
        assert engine.catalog.get(TEXT_ATTR) is None
        early_ctx = engine.context(strategy="qgrams")
        catalog = engine.analyze([TEXT_ATTR])
        assert engine.catalog is catalog
        assert early_ctx.catalog is catalog
        assert catalog.get(TEXT_ATTR).row_count == len(WORDS)
        # The executor consults the installed catalog automatically.
        result = engine.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        assert result.plan.steps[0].estimated_rows is not None

    def test_analyze_merges(self, engine):
        engine.analyze([TEXT_ATTR])
        engine.analyze([LEN_ATTR])
        assert engine.catalog.get(TEXT_ATTR) is not None
        assert engine.catalog.get(LEN_ATTR) is not None

    def test_analyze_charges_messages(self, engine):
        engine.analyze([TEXT_ATTR])
        assert engine.last_cost().messages > 0


class TestAdaptive:
    def test_similar_records_decision(self, adaptive_engine):
        result = adaptive_engine.similar("aple", TEXT_ATTR, 1)
        assert any(m.matched == "apple" for m in result.matches)
        decisions = adaptive_engine.last_decisions()
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.chosen.is_physical
        assert decision.predicted.messages > 0
        assert decision.actual_messages is not None
        assert decision.actual_messages > 0

    def test_vql_query_carries_decisions(self, adaptive_engine):
        result = adaptive_engine.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'grape') <= 1) }"
        )
        assert result.cost.decisions
        for decision in result.cost.decisions:
            assert decision.chosen.is_physical
            assert decision.actual_messages is not None

    def test_decisions_are_scoped_per_operation(self, adaptive_engine):
        """Each recorded operation's report carries exactly the decisions
        its own scope collected, and the context keeps none of them."""
        engine = adaptive_engine
        for i in range(200):
            search = WORDS[i % len(WORDS)]
            if i % 4:
                d = i % 3
                engine.similar(search, TEXT_ATTR, d)
                decisions = engine.last_decisions()
                assert [(x.search, x.d) for x in decisions] == [(search, d)]
            else:
                result = engine.top_n_string(TEXT_ATTR, search, 3, 2)
                decisions = engine.last_decisions()
                assert len(decisions) == result.rounds
                assert [x.d for x in decisions] == list(range(result.rounds))
                assert {x.search for x in decisions} == {search}
        for i in range(20):
            search = WORDS[i % len(WORDS)]
            result = engine.query(
                f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
                f"FILTER (dist(?w,'{search}') <= 1) }}"
            )
            assert result.cost.decisions
            assert engine.last_decisions() == result.cost.decisions
            assert {x.search for x in result.cost.decisions} == {search}
        assert engine.ctx.scope is None
        engine.similar(WORDS[0], TEXT_ATTR, 1, strategy="strings")
        assert engine.last_decisions() == []

    def test_fixed_strategy_queries_record_no_decisions(self, engine):
        engine.similar("apple", TEXT_ATTR, 1)
        assert engine.last_decisions() == []

    def test_predict_similar(self, adaptive_engine):
        predictions = adaptive_engine.predict_similar("apple", TEXT_ATTR, 1)
        assert set(predictions) == {"qsamples", "qgrams", "strings"}

    def test_adaptive_without_analyze_still_answers(self):
        engine = QueryEngine.build(
            16, word_triples(), StoreConfig(seed=7), strategy="adaptive"
        )
        result = engine.similar("apple", TEXT_ATTR, 0)
        assert any(m.matched == "apple" for m in result.matches)
        assert engine.last_decisions()[0].chosen.is_physical


class TestMutationInvalidation:
    def test_insert_invalidates_what_it_wrote(self, engine):
        engine.similar("apple", TEXT_ATTR, 1, strategy="strings")
        engine.similar("apple", TEXT_ATTR, 1)
        assert len(engine.naive_memo) > 0
        tables, records = len(engine.gram_scan_memo), len(engine.fetch_memo)
        assert tables > 0 and records > 0
        engine.insert([Triple("x:new", TEXT_ATTR, "appla")])
        # The whole-region naive memo overlaps the written partitions and
        # drops; the gram tables the write names are patched where they
        # stand, and no cached object is the new one.
        assert len(engine.naive_memo) == 0
        assert len(engine.gram_scan_memo) == tables
        assert len(engine.fetch_memo) == records
        assert engine.last_write().invalidated == {
            "naive": 1, "gram_scan": 0, "fetch": 0
        }
        found = engine.similar("apple", TEXT_ATTR, 1)
        assert "x:new" in {m.oid for m in found.matches}

    def test_clear_memos_before_insert_leaves_memos_empty(self, engine):
        """Clearing right before a write (the mutate bench's drop arm):
        the write finds empty memos, so it drops nothing and leaves
        nothing."""
        engine.similar("apple", TEXT_ATTR, 1, strategy="strings")
        engine.similar("apple", TEXT_ATTR, 1)
        assert len(engine.fetch_memo) > 0
        engine.clear_memos()
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        assert engine.last_write().invalidated == {
            "naive": 0, "gram_scan": 0, "fetch": 0
        }
        assert len(engine.naive_memo) == 0
        assert len(engine.gram_scan_memo) == 0
        assert len(engine.fetch_memo) == 0

    def test_out_of_band_mutation_detected(self, engine):
        """Even a direct store write trips the token check."""
        engine.similar("apple", TEXT_ATTR, 1, strategy="strings")
        assert len(engine.naive_memo) > 0
        peer = engine.network.peer(0)
        entry = next(
            engine.network.entry_factory.entries_for(
                Triple("x:oob", TEXT_ATTR, "untracked")
            )
        )
        peer.store.add(entry)  # a write that bypasses the engine
        assert engine.check_mutations() is True
        assert len(engine.naive_memo) == 0
        assert engine.check_mutations() is False

    def test_queries_after_insert_see_new_data(self, engine):
        engine.similar("apple", TEXT_ATTR, 1)
        engine.insert([Triple("x:new", TEXT_ATTR, "appla")])
        result = engine.similar("apple", TEXT_ATTR, 1)
        assert "appla" in {m.matched for m in result.matches}


class TestLedger:
    def test_stats_accumulate(self, engine):
        before = engine.stats.queries
        engine.similar("apple", TEXT_ATTR, 1)
        engine.query(f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) }} LIMIT 2")
        assert engine.stats.queries == before + 2
        assert engine.stats.messages > 0

    def test_explain_does_not_execute(self, engine):
        before = engine.network.tracer.message_count
        text = engine.explain(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') < 2) }"
        )
        assert "string_similarity" in text
        assert engine.network.tracer.message_count == before


class TestFailedOperations:
    """An operation that raises is still one recorded operation: its
    report — with the decisions it took — becomes ``last_cost()`` and a
    ``stats`` entry, and nothing else keeps those decisions."""

    @pytest.fixture()
    def failing_engine(self, adaptive_engine):
        adaptive_engine.install_faults(FaultPlan.lossy(0.02, seed=5), mode="strict")
        adaptive_engine.fail_fraction(0.5, protect_partitions=False)
        return adaptive_engine

    def _failures(self, engine, run) -> list:
        """Run ``run(word)`` per word; for each one that raised, check it
        was recorded and return weak references to its decisions."""
        decisions = []
        for word in WORDS:
            queries, stale = engine.stats.queries, engine.last_cost()
            try:
                run(word)
            except ReproError:
                cost = engine.last_cost()
                assert engine.stats.queries == queries + 1
                assert cost is not stale
                assert cost.completeness is not None
                assert [d.search for d in cost.decisions] == [word]
                decisions += [weakref.ref(d) for d in cost.decisions]
            else:
                assert engine.stats.queries == queries + 1
        return decisions

    def _assert_released(self, engine, decisions) -> None:
        assert len(decisions) >= 3, "scenario needs failing queries"
        assert engine.ctx.scope is None
        engine.clear_faults()
        engine.recover(repair=False)
        engine.similar(WORDS[0], TEXT_ATTR, 1, strategy="strings")
        gc.collect()
        assert [ref for ref in decisions if ref() is not None] == []

    def test_failed_vql_queries_are_recorded(self, failing_engine):
        engine = failing_engine
        decisions = self._failures(
            engine,
            lambda word: engine.query(
                f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
                f"FILTER (dist(?w,'{word}') <= 1) }}"
            ),
        )
        self._assert_released(engine, decisions)

    def test_failed_similar_calls_are_recorded(self, failing_engine):
        engine = failing_engine
        decisions = self._failures(
            engine, lambda word: engine.similar(word, TEXT_ATTR, 1)
        )
        self._assert_released(engine, decisions)
