"""Integration tests for the QueryEngine data-management facade."""


from repro.core.config import RankFunction, SimilarityStrategy, StoreConfig
from repro.engine import QueryEngine
from repro.storage.schema import RelationSchema, record_to_triples, rows_to_triples
from repro.storage.triple import Triple

from tests.conftest import LEN_ATTR, TEXT_ATTR, WORDS


class TestBuildAndInsert:
    def test_build_empty(self):
        store = QueryEngine.build(8)
        assert store.n_peers == 8

    def test_insert_then_query(self):
        store = QueryEngine.build(16, config=StoreConfig(seed=2))
        store.insert([Triple("x:1", "t:name", "overlay")])
        hits = store.select("t:name", "overlay")
        assert [m.oid for m in hits] == ["x:1"]

    def test_insert_record(self):
        store = QueryEngine.build(16, config=StoreConfig(seed=2))
        store.insert(record_to_triples("c:1", {"name": "bmw", "hp": 300}, "car"))
        assert store.lookup("c:1")

    def test_insert_rows(self):
        store = QueryEngine.build(16, config=StoreConfig(seed=2))
        schema = RelationSchema("w", ("t",))
        store.insert(rows_to_triples(schema, [{"t": "alpha"}, {"t": "beta"}]))
        assert store.select("w:t", "alpha")

    def test_strategy_string_accepted(self):
        store = QueryEngine.build(8, strategy="qsample")
        assert store.ctx.strategy is SimilarityStrategy.QSAMPLE


class TestOperatorFacade:
    def test_similar(self, word_store):
        result = word_store.similar("apple", TEXT_ATTR, 1)
        assert any(m.matched == "apple" for m in result.matches)

    def test_similar_strategy_override(self, word_store):
        naive = word_store.similar("apple", TEXT_ATTR, 1, strategy="strings")
        default = word_store.similar("apple", TEXT_ATTR, 1)
        assert {m.matched for m in naive.matches} == {
            m.matched for m in default.matches
        }

    def test_similar_numeric(self, word_store):
        matches = word_store.similar_numeric(LEN_ATTR, 5.0, 0.0)
        assert {m.value_of(TEXT_ATTR) for m in matches} == {
            w for w in WORDS if len(w) == 5
        }

    def test_sim_join_anchored(self, word_store):
        result = word_store.sim_join_anchored(TEXT_ATTR, "apple", TEXT_ATTR, 1)
        assert any(p.right.matched == "apply" for p in result.pairs)

    def test_top_n(self, word_store):
        result = word_store.top_n(LEN_ATTR, 3, RankFunction.MAX)
        assert len(result.matches) == 3

    def test_top_n_rank_string(self, word_store):
        result = word_store.top_n(LEN_ATTR, 2, "min")
        assert [m.distance for m in result.matches] == sorted(
            float(len(w)) for w in WORDS
        )[:2]

    def test_top_n_string(self, word_store):
        result = word_store.top_n_string(TEXT_ATTR, "apple", 3)
        assert result.matches[0].matched == "apple"

    def test_keyword(self, word_store):
        triples = word_store.keyword("banana")
        assert [(t.attribute, t.value) for t in triples] == [
            (TEXT_ATTR, "banana")
        ]

    def test_lookup(self, word_store):
        triples = word_store.lookup("w:0000")
        assert {t.attribute for t in triples} == {TEXT_ATTR, LEN_ATTR}


class TestCostLedger:
    def test_last_cost_and_stats(self, word_store):
        queries_before = word_store.stats.queries
        word_store.similar("apple", TEXT_ATTR, 1)
        assert word_store.last_cost().messages > 0
        assert word_store.stats.queries == queries_before + 1

    def test_explain_does_not_execute(self, word_store):
        messages_before = word_store.network.tracer.message_count
        text = word_store.explain(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') < 2) }"
        )
        assert "string_similarity" in text
        assert word_store.network.tracer.message_count == messages_before
