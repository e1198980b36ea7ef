"""Unit tests for binding sets and local joins."""

from repro.query.bindings import BindingSet


class TestBasics:
    def test_unit(self):
        unit = BindingSet.unit()
        assert len(unit) == 1
        assert unit.variables() == set()

    def test_variables(self):
        bindings = BindingSet([{"a": 1, "b": 2}])
        assert bindings.variables() == {"a", "b"}

    def test_empty_is_falsy(self):
        assert not BindingSet()
        assert BindingSet([{"a": 1}])

    def test_distinct_values(self):
        bindings = BindingSet([{"a": 2}, {"a": 1}, {"a": 2}])
        assert bindings.distinct_values("a") == [1, 2]


class TestJoin:
    def test_hash_join_on_shared_variable(self):
        left = BindingSet([{"o": "x", "n": 1}, {"o": "y", "n": 2}])
        right = BindingSet([{"o": "x", "p": 10}, {"o": "z", "p": 30}])
        joined = left.join(right)
        assert joined.rows == [{"o": "x", "n": 1, "p": 10}]

    def test_join_multiple_matches(self):
        left = BindingSet([{"o": "x"}])
        right = BindingSet([{"o": "x", "p": 1}, {"o": "x", "p": 2}])
        assert len(left.join(right)) == 2

    def test_cross_product_without_shared_vars(self):
        left = BindingSet([{"a": 1}, {"a": 2}])
        right = BindingSet([{"b": 10}])
        joined = left.join(right)
        assert len(joined) == 2
        assert joined.rows[0] == {"a": 1, "b": 10}

    def test_join_with_unit_is_identity(self):
        rows = BindingSet([{"a": 1}])
        assert BindingSet.unit().join(rows).rows == rows.rows

    def test_join_on_two_shared_vars(self):
        left = BindingSet([{"a": 1, "b": 2}, {"a": 1, "b": 3}])
        right = BindingSet([{"a": 1, "b": 2, "c": 9}])
        assert left.join(right).rows == [{"a": 1, "b": 2, "c": 9}]


class TestTransforms:
    def test_filter(self):
        bindings = BindingSet([{"a": 1}, {"a": 5}])
        assert bindings.filter(lambda r: r["a"] > 2).rows == [{"a": 5}]

    def test_extend_each(self):
        bindings = BindingSet([{"a": 1}, {"a": 2}])
        extended = bindings.extend_each(
            lambda row: [{"b": row["a"] * 10}] if row["a"] == 1 else []
        )
        assert extended.rows == [{"a": 1, "b": 10}]
