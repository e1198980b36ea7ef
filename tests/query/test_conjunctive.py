"""Multi-attribute similarity queries as conjunctive VQL (Section 4).

The paper answers a query with predicates on several attributes "as
separate sub-queries and intersecting the results".  In VQL that query is
one pattern per attribute joined on the object variable, with one filter
per predicate; the tests compare its answer with the intersection of the
single-attribute operators and with a brute-force scan.  Equi-joins on a
shared value variable are the same join on another variable.
"""

from itertools import product

import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.datasets.cars import car_database
from repro.engine import QueryEngine
from repro.similarity.edit_distance import edit_distance
from repro.storage.triple import Triple

from tests.conftest import LEN_ATTR, TEXT_ATTR, WORDS

NAMES = ["apple", "apply", "ample", "maple", "grape", "grace", "cherry", "berry"]
COLORS = ["red", "rod", "reed", "bed", "green", "greed", "blue", "glue"]

#: Objects with a name and a color: two of each pairing whose indexes do
#: not sum to a multiple of 3, so some pairings never occur.
FRUITS = {
    f"x:{i:04d}": (NAMES[a], COLORS[b])
    for i, (a, b) in enumerate(
        (a, b)
        for a, b in product(range(len(NAMES)), range(len(COLORS)))
        if (a + b) % 3
        for __ in range(2)
    )
}

POINTS = [(0.0, 0.0), (1.0, 1.0), (3.0, 4.0), (6.0, 8.0), (-2.0, 1.0)]


def fruit_triples() -> list[Triple]:
    triples = []
    for oid, (name, color) in FRUITS.items():
        triples.append(Triple(oid, "x:name", name))
        triples.append(Triple(oid, "x:color", color))
    return triples


def conjunction(name: str, dn: int, color: str, dc: int) -> str:
    return (
        "SELECT ?o,?n,?c WHERE { (?o,x:name,?n) (?o,x:color,?c) "
        f"FILTER (dist(?n,'{name}') <= {dn}) FILTER (dist(?c,'{color}') <= {dc}) }}"
    )


@pytest.fixture(scope="module")
def fruit_store() -> QueryEngine:
    return QueryEngine.build(40, fruit_triples(), StoreConfig(seed=11))


@pytest.fixture(scope="module")
def cars():
    db = car_database(n_cars=80, n_dealers=12, seed=5)
    return db, QueryEngine.build(48, db.triples, StoreConfig(seed=5))


@pytest.fixture(scope="module")
def point_store() -> QueryEngine:
    triples = []
    for i, (x, y) in enumerate(POINTS):
        triples.append(Triple(f"p:{i:03d}", "pt:x", x))
        triples.append(Triple(f"p:{i:03d}", "pt:y", y))
    return QueryEngine.build(24, triples, StoreConfig(seed=6))


class TestStringConjunction:
    def test_single_predicate_equals_similar(self, fruit_store):
        result = fruit_store.query(
            "SELECT ?o WHERE { (?o,x:name,?n) FILTER (dist(?n,'apple') <= 1) }"
        )
        single = fruit_store.similar("apple", "x:name", 1)
        assert set(result.column("o")) == {m.oid for m in single.matches}

    @pytest.mark.parametrize(
        "strategy",
        [
            SimilarityStrategy.QGRAM,
            SimilarityStrategy.QSAMPLE,
            SimilarityStrategy.NAIVE,
        ],
    )
    def test_conjunction_is_the_intersection(self, strategy):
        engine = QueryEngine.build(40, fruit_triples(), StoreConfig(seed=11), strategy)
        result = engine.query(conjunction("apple", 1, "red", 1))
        names = engine.similar("apple", "x:name", 1)
        colors = engine.similar("red", "x:color", 1)
        expected = {m.oid for m in names.matches} & {m.oid for m in colors.matches}
        assert expected
        assert set(result.column("o")) == expected

    def test_rows_match_brute_force(self, fruit_store):
        result = fruit_store.query(conjunction("grape", 1, "greed", 1))
        expected = sorted(
            (oid, name, color)
            for oid, (name, color) in FRUITS.items()
            if edit_distance("grape", name) <= 1 and edit_distance("greed", color) <= 1
        )
        assert expected
        assert sorted((r["o"], r["n"], r["c"]) for r in result.rows) == expected

    def test_disjoint_predicates_intersect_to_nothing(self, fruit_store):
        assert fruit_store.similar("cherry", "x:name", 0).matches
        assert fruit_store.similar("blue", "x:color", 0).matches
        # Name 6 and color 6 sum to 12: no cherry is blue.
        assert len(fruit_store.query(conjunction("cherry", 0, "blue", 0))) == 0

    def test_plan_has_one_similarity_step_per_attribute(self, fruit_store):
        plan = fruit_store.explain(conjunction("apple", 1, "red", 1))
        assert plan.count("similarity") == 2
        assert "'x:name'" in plan and "'x:color'" in plan

    def test_two_predicates_on_one_value(self, word_store):
        result = word_store.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) FILTER (dist(?w,'apply') <= 1) }"
        )
        expected = sorted(
            w for w in WORDS
            if edit_distance("apple", w) <= 1 and edit_distance("apply", w) <= 1
        )
        assert expected
        assert sorted(result.column("w")) == expected

    def test_exact_predicates_on_one_value_intersect_to_nothing(self, word_store):
        result = word_store.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 0) FILTER (dist(?w,'cherry') <= 0) }"
        )
        assert len(result) == 0


class TestNumericConjunction:
    """A box query: one numeric interval per attribute (Section 4's
    distance-to-interval mapping, intersected over two attributes)."""

    @staticmethod
    def box(radius: float) -> str:
        return (
            "SELECT ?o WHERE { (?o,pt:x,?x) (?o,pt:y,?y) "
            f"FILTER (dist(?x,0) <= {radius}) FILTER (dist(?y,0) <= {radius}) }}"
        )

    def test_box_is_the_intersection(self, point_store):
        result = point_store.query(self.box(4))
        xs = {m.oid for m in point_store.similar_numeric("pt:x", 0.0, 4.0)}
        ys = {m.oid for m in point_store.similar_numeric("pt:y", 0.0, 4.0)}
        expected = {
            f"p:{i:03d}"
            for i, (x, y) in enumerate(POINTS)
            if abs(x) <= 4 and abs(y) <= 4
        }
        assert set(result.column("o")) == xs & ys == expected

    def test_box_bounds_are_inclusive(self, point_store):
        # (3, 4) sits on the edge of the radius-4 box and outside the 3.9 one.
        assert "p:002" in point_store.query(self.box(4)).column("o")
        assert "p:002" not in point_store.query(self.box(3.9)).column("o")

    def test_string_and_numeric_predicates(self, word_store):
        result = word_store.query(
            f"SELECT ?w,?l WHERE {{ (?o,{TEXT_ATTR},?w) (?o,{LEN_ATTR},?l) "
            "FILTER (dist(?w,'apple') <= 2) FILTER (dist(?l,5) <= 0) }"
        )
        expected = sorted(
            w for w in WORDS if edit_distance("apple", w) <= 2 and len(w) == 5
        )
        assert expected
        assert sorted(result.column("w")) == expected
        assert set(result.column("l")) == {5}


class TestValueJoin:
    """Section 3's car/dealer join: a shared value variable."""

    JOIN = "SELECT ?c,?d,?id WHERE { (?c,car:dealer,?id) (?d,dealer:dlrid,?id) }"

    def test_join_on_value(self, cars):
        car_db, car_store = cars
        dealers = {
            t.value: t.oid for t in car_db.triples if t.attribute == "dealer:dlrid"
        }
        expected = sorted(
            (t.oid, dealers[t.value], t.value)
            for t in car_db.triples
            if t.attribute == "car:dealer" and t.value in dealers
        )
        result = car_store.query(self.JOIN)
        assert expected
        assert sorted((r["c"], r["d"], r["id"]) for r in result.rows) == expected

    def test_join_with_a_side_filter(self, car_store):
        result = car_store.query(self.JOIN[:-1] + "FILTER (?id = 'd003') }")
        assert set(result.column("id")) <= {"d003"}
        assert sorted(result.rows, key=lambda r: r["c"]) == sorted(
            (r for r in car_store.query(self.JOIN).rows if r["id"] == "d003"),
            key=lambda r: r["c"],
        )

    def test_disjoint_values_join_to_nothing(self, car_store):
        result = car_store.query(
            "SELECT ?c,?d WHERE { (?c,car:name,?v) (?d,dealer:dlrid,?v) }"
        )
        assert len(result) == 0
