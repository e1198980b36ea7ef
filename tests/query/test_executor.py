"""Integration tests for the VQL executor on the word and car stores."""

import pytest

from repro.core.config import StoreConfig
from repro.engine import QueryEngine
from repro.similarity.edit_distance import edit_distance
from repro.storage.triple import Triple

from tests.conftest import LEN_ATTR, TEXT_ATTR, WORDS, word_triples
from tests.reference.kernel import edit_distance_within


class TestSinglePattern:
    def test_scan_all(self, word_store):
        result = word_store.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) }}"
        )
        assert sorted(result.column("w")) == sorted(WORDS)

    def test_exact_object(self, word_store):
        result = word_store.query(
            f"SELECT ?o WHERE {{ (?o,{TEXT_ATTR},'banana') }}"
        )
        assert len(result) == 1

    def test_similarity_filter(self, word_store):
        result = word_store.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        expected = sorted(w for w in WORDS if edit_distance("apple", w) <= 1)
        assert sorted(result.column("w")) == expected

    def test_numeric_range_filter(self, word_store):
        result = word_store.query(
            f"SELECT ?l WHERE {{ (?o,{LEN_ATTR},?l) FILTER (?l <= 5) }}"
        )
        expected = sorted(len(w) for w in WORDS if len(w) <= 5)
        assert sorted(result.column("l")) == expected

    def test_equality_filter_via_range(self, word_store):
        result = word_store.query(
            f"SELECT ?l WHERE {{ (?o,{LEN_ATTR},?l) FILTER (?l = 4) }}"
        )
        assert result.column("l") == [4] * sum(1 for w in WORDS if len(w) == 4)


class TestJoins:
    def test_subject_join_two_patterns(self, word_store):
        result = word_store.query(
            f"SELECT ?w,?l WHERE {{ (?o,{TEXT_ATTR},?w) (?o,{LEN_ATTR},?l) "
            "FILTER (dist(?w,'grape') <= 1) }"
        )
        for row in result.rows:
            assert row["l"] == len(row["w"])

    def test_residual_filter_applied(self, word_store):
        result = word_store.query(
            f"SELECT ?w,?l WHERE {{ (?o,{TEXT_ATTR},?w) (?o,{LEN_ATTR},?l) "
            "FILTER (dist(?w,'apple') <= 2) FILTER (?l != 5) }"
        )
        assert all(row["l"] != 5 for row in result.rows)
        assert result.rows  # 'apples', 'applet', ...

    def test_similarity_join_between_variables(self, word_store):
        result = word_store.query(
            f"SELECT ?a,?b WHERE {{ (?x,{TEXT_ATTR},?a) (?y,{TEXT_ATTR},?b) "
            "FILTER (dist(?a,'band') <= 0) FILTER (dist(?b,?a) <= 2) }"
        )
        expected = sorted(w for w in WORDS if edit_distance("band", w) <= 2)
        assert sorted(result.column("b")) == expected


class TestModifiers:
    def test_order_by_asc(self, word_store):
        result = word_store.query(
            f"SELECT ?l WHERE {{ (?o,{LEN_ATTR},?l) }} ORDER BY ?l"
        )
        assert result.column("l") == sorted(len(w) for w in WORDS)

    def test_order_by_desc_limit(self, word_store):
        result = word_store.query(
            f"SELECT ?l WHERE {{ (?o,{LEN_ATTR},?l) }} ORDER BY ?l DESC LIMIT 3"
        )
        assert result.column("l") == sorted(
            (len(w) for w in WORDS), reverse=True
        )[:3]

    def test_order_by_nn_string(self, word_store):
        result = word_store.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) }} "
            "ORDER BY ?w NN 'apple' LIMIT 4"
        )
        got = [edit_distance("apple", w) for w in result.column("w")]
        expected = sorted(edit_distance("apple", w) for w in WORDS)[:4]
        assert got == expected

    def test_offset(self, word_store):
        full = word_store.query(
            f"SELECT ?l WHERE {{ (?o,{LEN_ATTR},?l) }} ORDER BY ?l LIMIT 10"
        )
        shifted = word_store.query(
            f"SELECT ?l WHERE {{ (?o,{LEN_ATTR},?l) }} "
            "ORDER BY ?l LIMIT 5 OFFSET 5"
        )
        assert shifted.column("l") == full.column("l")[5:10]

    def test_top_n_pushdown_survives_join_filtering(self, word_store):
        # The top-N push-down must overfetch past rows the filter kills.
        result = word_store.query(
            f"SELECT ?w,?l WHERE {{ (?o,{LEN_ATTR},?l) (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 2) } ORDER BY ?l DESC LIMIT 2"
        )
        similar_words = [w for w in WORDS if edit_distance("apple", w) <= 2]
        expected = sorted((len(w) for w in similar_words), reverse=True)[:2]
        assert result.column("l") == expected


class TestCostReporting:
    def test_cost_positive(self, word_store):
        result = word_store.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        assert result.cost.messages > 0
        assert result.plan.steps

    def test_stats_accumulate(self, word_store):
        before = word_store.stats.queries
        word_store.query(f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},'apple') (?o,{TEXT_ATTR},?w) }}")
        assert word_store.stats.queries == before + 1


class TestCarScenarios:
    def test_paper_example_one_shape(self, car_store):
        result = car_store.query(
            """
            SELECT ?n,?h,?p
            WHERE { (?o,car:name,?n) (?o,car:hp,?h) (?o,car:price,?p)
            FILTER (?p < 50000) }
            ORDER BY ?h DESC LIMIT 5
            """
        )
        assert len(result) <= 5
        hps = result.column("h")
        assert hps == sorted(hps, reverse=True)
        assert all(row["p"] < 50000 for row in result.rows)

    def test_schema_level_typo_detection(self, car_store):
        result = car_store.query(
            """
            SELECT ?d,?a
            WHERE { (?d,?a,?id) FILTER (dist(?a,'dealer:dlrid') < 3) }
            ORDER BY ?a NN 'dealer:dlrid'
            """
        )
        attributes = set(result.column("a"))
        assert "dealer:dlrid" in attributes
        assert any(a != "dealer:dlrid" for a in attributes)  # typo variants

    def test_instance_similarity_finds_typos(self, car_store):
        result = car_store.query(
            """
            SELECT ?n WHERE { (?o,car:name,?n)
            FILTER (dist(?n,'bmw roadster') <= 2) }
            """
        )
        names = set(result.column("n"))
        assert "bmw roadster" in names


class TestVerifiedRechecks:
    """A matched object's other values, and its other attribute names,
    pass the executor's re-check only within the limit: one oid holds
    the matched value, a value exactly at the limit and a far value of
    one attribute, and one object a near and a far attribute name.
    Every row set equals a brute-force filter."""

    EXTRA = [
        Triple("o:pair", TEXT_ATTR, "apple"),  # matched: 0 from 'apple'
        Triple("o:pair", TEXT_ATTR, "applex"),  # 1 from 'apple', not matched
        Triple("o:pair", TEXT_ATTR, "zebra"),  # far from 'apple'
        Triple("o:zebras", TEXT_ATTR, "zebras"),  # 1 from 'zebra'
        Triple("o:attrs", "colour:hux", "red"),  # name 1 from 'colour:hue'
        Triple("o:attrs", "size:len", 3),  # name far from it
    ]

    @pytest.fixture(scope="class", params=["naive", "qgram", "qsample"])
    def store(self, request):
        triples = word_triples() + self.EXTRA
        engine = QueryEngine.build(
            32, triples, StoreConfig(seed=7), strategy=request.param
        )
        return engine, triples

    @staticmethod
    def near(target, value, limit):
        return edit_distance_within(target, value, limit) <= limit

    def test_instance_rows(self, store):
        engine, triples = store
        result = engine.query(
            f"SELECT ?o,?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        expected = [
            (t.oid, t.value) for t in triples
            if t.attribute == TEXT_ATTR and self.near("apple", t.value, 1)
        ]
        assert ("o:pair", "applex") in expected
        assert sorted((r["o"], r["w"]) for r in result.rows) == sorted(expected)

    @staticmethod
    def naive_delta(call, counter):
        """How far ``call`` moves a verifier counter on a fresh naive
        engine over the word store (one text value per object)."""
        engine = QueryEngine.build(
            32, word_triples(), StoreConfig(seed=7), strategy="naive"
        )
        before = engine.verifier_stats()[counter]
        call(engine)
        return engine.verifier_stats()[counter] - before

    @staticmethod
    def similar_alone(engine):
        engine.similar("apple", TEXT_ATTR, 1)

    @staticmethod
    def similarity_step(engine):
        engine.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )

    def test_matched_values_are_not_scanned_again(self):
        """The naive operator's distance decides the matched value: the
        step's re-check scans nothing that ``similar()`` alone did not."""
        alone = self.naive_delta(self.similar_alone, "computed")
        assert alone > 0
        assert self.naive_delta(self.similarity_step, "computed") == alone

    @pytest.mark.parametrize("counter", ["verifiers", "misses"])
    def test_matched_values_draw_no_verifier(self, counter):
        """No object holds a second value, so the step's re-check needs
        no verifier and draws none: the pool holds, and missed, only what
        the operator drew."""
        alone = self.naive_delta(self.similar_alone, counter)
        assert alone > 0
        assert self.naive_delta(self.similarity_step, counter) == alone

    def test_schema_rows(self, store):
        engine, triples = store
        result = engine.query(
            "SELECT ?o,?a,?v WHERE { (?o,?a,?v) "
            "FILTER (dist(?a,'colour:hue') <= 1) }"
        )
        expected = [
            (t.oid, t.attribute, t.value) for t in triples
            if self.near("colour:hue", t.attribute, 1)
        ]
        assert expected == [("o:attrs", "colour:hux", "red")]
        assert sorted(
            (r["o"], r["a"], r["v"]) for r in result.rows
        ) == sorted(expected)

    def test_similarity_join_rows(self, store):
        engine, triples = store
        result = engine.query(
            f"SELECT ?a,?b WHERE {{ (?x,{TEXT_ATTR},?a) (?y,{TEXT_ATTR},?b) "
            "FILTER (dist(?a,'zebra') <= 0) FILTER (dist(?b,?a) <= 1) }"
        )
        expected = [
            ("zebra", t.value) for t in triples
            if t.attribute == TEXT_ATTR and self.near("zebra", t.value, 1)
        ]
        assert sorted(expected) == [("zebra", "zebra"), ("zebra", "zebras")]
        assert sorted((r["a"], r["b"]) for r in result.rows) == sorted(expected)
