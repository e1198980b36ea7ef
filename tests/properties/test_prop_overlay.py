"""Property-based tests: routing correctness and range-query completeness.

These build small networks per example, so example counts are kept modest.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig
from repro.overlay.keys import int_to_key, prefix_interval
from repro.overlay.network import PGridNetwork
from repro.overlay.range_query import range_query
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple

from tests.reference.routing_tables import partitions_in_range_scan

ATTR = "t:v"

word_lists = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=8),
    min_size=1,
    max_size=25,
    unique=True,
)


def build(words, n_peers, seed):
    config = StoreConfig(seed=seed)
    triples = [Triple(f"x:{i:03d}", ATTR, w) for i, w in enumerate(words)]
    probe = PGridNetwork(1, config)
    sample = [e.key for e in probe.entry_factory.entries_for_all(triples)]
    network = PGridNetwork(n_peers, config, sample_keys=sample)
    network.insert_triples(triples)
    return network


class TestRoutingProperties:
    @settings(max_examples=25, deadline=None)
    @given(word_lists, st.integers(min_value=1, max_value=40), st.integers(0, 5))
    def test_retrieve_finds_every_inserted_word(self, words, n_peers, seed):
        network = build(words, n_peers, seed)
        start = seed % network.n_peers
        for word in words:
            key = network.codec.attr_value_key(ATTR, word)
            entries, __ = network.router.retrieve(key, start)
            found = {
                e.triple.value
                for e in entries
                if e.kind is EntryKind.ATTR_VALUE and e.triple.attribute == ATTR
            }
            assert word in found

    @settings(max_examples=25, deadline=None)
    @given(word_lists, st.integers(min_value=2, max_value=40), st.integers(0, 5))
    def test_route_terminates_at_responsible_peer(self, words, n_peers, seed):
        network = build(words, n_peers, seed)
        for word in words[:5]:
            key = network.codec.attr_value_key(ATTR, word)
            peer = network.router.route(key, (seed * 7) % network.n_peers)
            assert peer.responsible_for(key)


class TestRangeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=1,
            max_size=25,
            unique=True,
        ),
        st.integers(min_value=1, max_value=30),
        st.integers(-1000, 1000),
        st.integers(0, 300),
    )
    def test_range_query_complete_and_sound(self, values, n_peers, lo, width):
        config = StoreConfig(seed=1)
        triples = [Triple(f"x:{i:03d}", ATTR, v) for i, v in enumerate(values)]
        probe = PGridNetwork(1, config)
        sample = [e.key for e in probe.entry_factory.entries_for_all(triples)]
        network = PGridNetwork(n_peers, config, sample_keys=sample)
        network.insert_triples(triples)
        hi = lo + width
        lo_key, hi_key = network.codec.attr_value_range(ATTR, float(lo), float(hi))
        outcome = range_query(network.router, lo_key, hi_key, 0)
        got = sorted(
            e.triple.value
            for e in outcome.entries
            if e.kind is EntryKind.ATTR_VALUE
            and e.triple.attribute == ATTR
            and lo <= float(e.triple.value) <= hi
        )
        expected = sorted(v for v in values if lo <= v <= hi)
        assert got == expected


class TestPartitionsInRange:
    """The bisected run of partitions equals testing every partition."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), key_bits=st.integers(4, 12), uniform=st.booleans())
    def test_bisected_run_equals_the_scan(self, data, key_bits, uniform):
        top = (1 << key_bits) - 1
        config = StoreConfig(key_bits=key_bits, attr_bits=1)
        n_partitions = data.draw(st.integers(1, min(40, top + 1)))
        # A skewed sample makes a lopsided trie; none makes an even one.
        sample = [] if uniform else data.draw(
            st.lists(
                st.integers(0, top).map(lambda v: int_to_key(v, key_bits)),
                min_size=1,
                max_size=60,
            )
        )
        network = PGridNetwork(n_partitions, config, sample_keys=sample)
        # A little beyond both ends of the key space, and ``lo > hi``.
        bound = st.integers(-3, top + 3)
        intervals = data.draw(st.lists(st.tuples(bound, bound), max_size=8))
        edges = [prefix_interval(path, key_bits) for path in network._paths[:4]]
        for lo, hi in (
            intervals
            + edges  # exactly one partition each
            + [(lo, lo) for lo, __ in edges]  # single keys on a boundary
            + [(hi, hi + 1) for __, hi in edges]  # straddling a boundary
            + [(0, top), (-3, top + 3), (top, 0)]  # full range, empty
        ):
            assert network.partitions_in_range(lo, hi) == partitions_in_range_scan(
                network, lo, hi
            ), (lo, hi)
