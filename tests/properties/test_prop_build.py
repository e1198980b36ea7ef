"""Property tests: each build step equals its twin in
``tests/reference/bulk_load.py``.

* Derivation: ``EntryFactory`` (slot-filled entries, one list per
  triple, the codec's memo probed first) yields what the keyword-built
  generator yields over a codec that remembers nothing — field for
  field, in order — for strings short and long, ASCII or not, ints and
  floats, every index family on and off and q from 2 to 4.
* Counting: ``trie.data_aware_paths`` (prefix padded with ``0``/``1``)
  gives the integer-interval twin's paths.
* Placement: ``place_entries`` (one bisected run per partition) fills
  every store as per-entry bisection does.
* The slot-filled entry itself is the keyword-built one: equal, hashing
  alike, frozen, as large, and ``dataclasses.replace`` accepts it.

Run at 1000 examples with ``--hypothesis-profile=deep`` (the
``mutate-smoke`` CI job, under two hash seeds).
"""

import dataclasses
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig
from repro.overlay import trie
from repro.overlay.hashing import CompositeKeyCodec
from repro.overlay.network import PGridNetwork
from repro.storage.indexing import EntryFactory, EntryKind, IndexEntry, _new_entry
from repro.storage.triple import Triple

from tests.reference.bulk_load import reference_entries, reference_paths
from tests.reference.key_codec import ReferenceKeyCodec

FIELDS = [field.name for field in dataclasses.fields(IndexEntry)]

#: Printable ASCII, the gram markers' neighbours, and letters outside the
#: hash alphabet (folded or clamped by the order-preserving hash).
text = st.text(
    alphabet=st.sampled_from("abcxyz AZ09:#_-\x03éßΩ日\U0001f600"), max_size=3
) | st.text(min_size=4, max_size=60)
numbers = st.integers(min_value=-(10**12), max_value=10**12) | st.floats(
    allow_nan=False
)
triples = st.lists(
    st.builds(
        Triple,
        oid=st.text(min_size=1, max_size=8),
        attribute=st.sampled_from(["t:x", "name", "é:ü"])
        | st.text(min_size=1, max_size=12),
        value=text | numbers,
    ),
    max_size=12,
)
configs = st.builds(
    StoreConfig,
    q=st.integers(min_value=2, max_value=4),
    index_values=st.booleans(),
    index_instance_grams=st.booleans(),
    index_schema_grams=st.booleans(),
)


def fields(entries):
    return [tuple(getattr(entry, name) for name in FIELDS) for entry in entries]


class TestDerivation:
    @settings(deadline=None)
    @given(triples, configs)
    def test_entries_equal_the_keyword_twin(self, drawn, config):
        factory = EntryFactory(config, CompositeKeyCodec(config))
        codec = ReferenceKeyCodec(config)
        expected = fields(reference_entries(drawn, config, codec))
        # Twice over one codec: the second pass reads its memo.
        for __ in range(2):
            entries = list(factory.entries_for_all(drawn))
            assert all(type(entry) is IndexEntry for entry in entries)
            assert fields(entries) == expected
            assert entries == list(reference_entries(drawn, config, codec))

    @settings(deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-99, max_value=999)
            | st.sampled_from([0.5, 1.5, -0.0, 2.0]),
            min_size=1,
            max_size=8,
        ),
        configs,
    )
    def test_numbers_beside_their_text(self, numbers, config):
        """A number's text is a gram the codec remembers under the same
        attribute; the number itself keeps its numeric key."""
        drawn = [Triple(f"o:{i}", "t:x", str(n)) for i, n in enumerate(numbers)]
        drawn += [Triple(f"o:{i}", "t:x", n) for i, n in enumerate(numbers)]
        factory = EntryFactory(config, CompositeKeyCodec(config))
        codec = ReferenceKeyCodec(config)
        assert fields(factory.entries_for_all(drawn)) == fields(
            reference_entries(drawn, config, codec)
        )


KEY_BITS = 10

keys = st.integers(min_value=0, max_value=(1 << KEY_BITS) - 1).map(
    lambda value: format(value, f"0{KEY_BITS}b")
)


class TestCounting:
    @settings(deadline=None)
    @given(
        st.lists(keys, max_size=80),
        st.lists(
            st.integers(min_value=1, max_value=1 << 8),
            min_size=1,
            max_size=3,
        ),
    )
    def test_paths_equal_the_interval_twin(self, sample, partition_counts):
        for n_partitions in partition_counts:
            assert trie.data_aware_paths(
                n_partitions, sample, KEY_BITS
            ) == reference_paths(n_partitions, sample, KEY_BITS)

    @settings(deadline=None)
    @given(triples, configs, st.integers(min_value=1, max_value=64))
    def test_paths_over_derived_keys(self, drawn, config, n_partitions):
        codec = ReferenceKeyCodec(config)
        sample = [e.key for e in reference_entries(drawn, config, codec)]
        assert trie.data_aware_paths(
            n_partitions, sample, config.key_bits
        ) == reference_paths(n_partitions, sample, config.key_bits)


#: Full-width keys below 64: a trie of up to 64 partitions over them
#: runs down to full-width leaves.
narrow_keys = st.integers(min_value=0, max_value=63).map(
    lambda value: format(value, f"0{KEY_BITS}b")
)


def numbered(keys):
    return [
        IndexEntry(key, EntryKind.ATTR_VALUE, Triple(f"o:{i}", "t:x", i))
        for i, key in enumerate(keys)
    ]


def placed_twins(n_peers, config, sample, entries):
    """Two networks over ``sample``: one filled by ``place_entries``, one
    by per-entry bisection (one ``add_bulk`` per partition, its replicas
    then on the first one's version token)."""
    placed = PGridNetwork(n_peers, config, sample_keys=sample)
    bisected = PGridNetwork(n_peers, config, sample_keys=sample)
    assert placed.place_entries(entries) == len(entries)
    per_partition: dict[int, list[IndexEntry]] = {}
    for entry in entries:
        index = trie.find_responsible(bisected._paths, entry.key)
        per_partition.setdefault(index, []).append(entry)
    for index, run in per_partition.items():
        stores = [
            bisected.peers[peer_id].store
            for peer_id in bisected.partitions[index].peer_ids
        ]
        for store in stores:
            store.add_bulk(run)
        for store in stores[1:]:
            assert store.adopt(stores[0])
    return placed.peers, bisected.peers


class TestPlacement:
    @settings(deadline=None)
    @given(
        triples,
        configs,
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=6, max_value=32),
    )
    def test_stores_equal_per_entry_bisection(
        self, drawn, config, n_peers, k, key_bits
    ):
        # Narrow keys make full-width paths, which keys can equal.
        config = config.replace(replication=k, key_bits=key_bits, attr_bits=3)
        entries = sorted(
            reference_entries(drawn, config, ReferenceKeyCodec(config)),
            key=lambda entry: entry.key,
        )
        sample = [entry.key for entry in entries]
        placed, bisected = placed_twins(n_peers, config, sample, entries)
        for peer, twin in zip(placed, bisected, strict=True):
            assert list(peer.store) == list(twin.store)
            assert peer.store.version == twin.store.version

    @settings(deadline=None)
    @given(st.lists(narrow_keys, min_size=1, max_size=40), st.data())
    def test_keys_equal_to_paths(self, sample, data):
        """Keys crowded into a corner of the space make full-width
        paths, so a partition's run can end at a key equal to the next
        path."""
        n_peers = data.draw(st.integers(min_value=2, max_value=64))
        config = StoreConfig(key_bits=KEY_BITS, attr_bits=3)
        entries = numbered(sorted(sample))
        placed, bisected = placed_twins(n_peers, config, sample, entries)
        for peer, twin in zip(placed, bisected, strict=True):
            assert list(peer.store) == list(twin.store)
            assert peer.store.version == twin.store.version

    @settings(deadline=None)
    @given(
        st.lists(narrow_keys, min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(min_value=0), st.integers(1, KEY_BITS))),
        st.integers(min_value=2, max_value=64),
    )
    def test_short_keys_go_to_the_oracle(self, sample, cuts, n_peers):
        """Keys shorter than a path — prefixes of the sample's keys, so
        often of a path too — land where the oracle sends them, each
        store in key order."""
        config = StoreConfig(key_bits=KEY_BITS, attr_bits=3)
        short = [sample[index % len(sample)][:width] for index, width in cuts]
        entries = numbered(sorted(sample + short))
        placed, bisected = placed_twins(n_peers, config, sample, entries)
        for peer, twin in zip(placed, bisected, strict=True):
            assert list(peer.store) == list(twin.store)


class TestSlotFilledEntry:
    @given(
        st.text(alphabet="01", min_size=1, max_size=16),
        st.sampled_from(EntryKind),
        st.builds(Triple, oid=st.just("o:1"), attribute=st.just("t:x"), value=text),
        st.none() | st.text(max_size=4),
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=70),
    )
    def test_same_as_keyword_built(self, key, kind, triple, gram, position, length):
        built = IndexEntry(
            key, kind, triple, gram=gram, position=position, source_length=length
        )
        filled = _new_entry(key, kind, triple, gram, position, length)
        assert filled == built and hash(filled) == hash(built)
        assert repr(filled) == repr(built)
        assert sys.getsizeof(filled) == sys.getsizeof(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            filled.key = "1"  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            del filled.gram  # type: ignore[misc]
        moved = dataclasses.replace(filled, position=position + 1)
        assert moved == dataclasses.replace(built, position=position + 1)
        assert moved != filled and filled == built
