"""Integration tests for the QueryEngine facade (engine.py)."""

import inspect

import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.engine import QueryEngine
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

    def test_accepts_exactly_five_options(self):
        params = list(inspect.signature(QueryEngine.__init__).parameters)
        assert params == [
            "self", "network", "strategy", "memoize", "parallel_fanout",
            "edit_kernel", "verifier_pool_limit",
        ]

    @pytest.mark.parametrize(
        "option",
        [
            "memo_maintenance", "naive_sample_rate", "memoize_naive",
            "memoize_gram_scans", "memoize_fetches", "share_verifiers",
            "catalog", "latency_model",
        ],
    )
    def test_removed_option_rejected(self, option):
        with pytest.raises(TypeError):
            QueryEngine.build(8, **{option: None})

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

    def test_decision_log_is_drained_per_operation(self, adaptive_engine):
        """Each recorded operation takes its own decisions out of the
        context's log, so a long-lived engine keeps none of them."""
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
        assert engine.ctx.decision_log == []

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
