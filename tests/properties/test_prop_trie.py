"""Property-based tests: trie covers and the responsibility oracle."""

from hypothesis import given, settings, strategies as st

from repro.overlay import trie

from tests.reference.routing_tables import partition_loads


class TestUniformCover:
    @given(st.integers(min_value=1, max_value=200))
    def test_cover_is_complete_and_prefix_free(self, n):
        paths = trie.uniform_paths(n)
        trie.validate_cover(paths)
        assert len(paths) == n

    @given(st.integers(min_value=1, max_value=200))
    def test_depths_differ_by_at_most_one(self, n):
        depths = {len(p) for p in trie.uniform_paths(n)}
        assert max(depths) - min(depths) <= 1


class TestDataAwareCover:
    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=150),
    )
    def test_cover_complete_for_any_distribution(self, n, values):
        keys = [format(v, "016b") for v in values]
        paths = trie.data_aware_paths(n, keys, 16)
        trie.validate_cover(paths)
        assert len(paths) == n

    @settings(max_examples=50)
    @given(
        st.integers(min_value=2, max_value=32),
        st.lists(
            st.integers(min_value=0, max_value=(1 << 16) - 1),
            min_size=1,
            max_size=100,
        ),
    )
    def test_every_key_has_exactly_one_owner(self, n, values):
        keys = [format(v, "016b") for v in values]
        paths = sorted(trie.data_aware_paths(n, keys, 16))
        for key in keys:
            index = trie.find_responsible(paths, key)
            owners = [p for p in paths if key.startswith(p)]
            assert owners == [paths[index]]

    @settings(max_examples=50)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 16) - 1),
            min_size=1,
            max_size=120,
        )
    )
    def test_loads_sum_to_key_count(self, values):
        keys = [format(v, "016b") for v in values]
        paths = trie.data_aware_paths(8, keys, 16)
        assert sum(partition_loads(paths, keys)) == len(keys)
