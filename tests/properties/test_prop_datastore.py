"""Model-based property tests for the per-peer datastore.

The store must behave exactly like a sorted multimap; the model is a
plain list of ``(key, entry)`` pairs that every operation is checked
against.  The state machine at the end holds it order-exactly equal to
``tests/reference/datastore.py`` across interleaved writes and reads.
"""

import dataclasses
import operator
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.storage.datastore import LocalDataStore
from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.triple import Triple
from tests.reference.datastore import ReferenceStore

KEY_BITS = 8

keys = st.integers(min_value=0, max_value=(1 << KEY_BITS) - 1).map(
    lambda v: format(v, f"0{KEY_BITS}b")
)


def entry_for(key: str, serial: int) -> IndexEntry:
    return IndexEntry(
        key=key,
        kind=EntryKind.ATTR_VALUE,
        triple=Triple(f"x:{serial:04d}", "a", serial),
    )


@st.composite
def stores(draw):
    """A store plus its reference model."""
    return draw(store_twins())[::2]


@st.composite
def store_twins(draw):
    """``(store, twin, entries)``: one drawn load — a bulk part, then
    single adds — applied to a store and to its
    ``tests/reference/datastore.py`` twin."""
    key_list = draw(st.lists(keys, max_size=40))
    entries = [entry_for(key, i) for i, key in enumerate(key_list)]
    store, twin = LocalDataStore(), ReferenceStore()
    bulk_split = draw(st.integers(min_value=0, max_value=len(entries)))
    for s in (store, twin):
        s.add_bulk(entries[:bulk_split])
        for entry in entries[bulk_split:]:
            s.add(entry)
    return store, twin, entries


class TestModelEquivalence:
    @settings(max_examples=100)
    @given(stores())
    def test_iteration_is_key_sorted_and_complete(self, pair):
        store, entries = pair
        assert len(store) == len(entries)
        iterated = [e.key for e in store]
        assert iterated == sorted(e.key for e in entries)

    @settings(max_examples=100)
    @given(stores(), keys)
    def test_lookup_matches_model(self, pair, probe):
        store, entries = pair
        expected = sorted(
            (e.triple.oid for e in entries if e.key == probe)
        )
        got = sorted(e.triple.oid for e in store.lookup(probe))
        assert got == expected

    @settings(max_examples=100)
    @given(stores(), st.integers(min_value=0, max_value=KEY_BITS))
    def test_prefix_scan_matches_model(self, pair, width):
        store, entries = pair
        if not entries:
            return
        prefix = entries[0].key[:width]
        expected = sorted(
            e.triple.oid for e in entries if e.key.startswith(prefix)
        )
        got = sorted(e.triple.oid for e in store.prefix_scan(prefix))
        assert got == expected

    @settings(max_examples=100)
    @given(stores(), keys, keys)
    def test_range_scan_matches_model(self, pair, a, b):
        store, entries = pair
        lo, hi = min(a, b), max(a, b)
        expected = sorted(
            e.triple.oid for e in entries if lo <= e.key <= hi
        )
        got = sorted(e.triple.oid for e in store.range_scan(lo, hi))
        assert got == expected

    @settings(max_examples=100)
    @given(stores())
    def test_remove_each_entry_once(self, pair):
        store, entries = pair
        for entry in entries:
            assert store.remove(entry)
        assert len(store) == 0
        if entries:
            assert not store.remove(entries[0])

    @settings(max_examples=100)
    @given(stores(), st.integers(min_value=0, max_value=KEY_BITS))
    def test_count_prefix_matches_scan(self, pair, width):
        store, entries = pair
        if not entries:
            return
        prefix = entries[-1].key[:width]
        assert store.count_prefix(prefix) == len(store.prefix_scan(prefix))


class TestSecondaryIndexEquivalence:
    """The lazy secondary indexes vs. ``tests/reference/datastore.py``.

    ``store_twins()`` interleaves bulk loads (deferred sort, dirty flag)
    with incremental inserts, so these properties cover the
    dirty-flag/bulk-load interaction the indexes must survive.  The twin
    keeps equal keys in arrival order on its own, so a sort that
    misorders them is caught even though the indexes built from it
    agree with it.
    """

    @settings(max_examples=100)
    @given(store_twins(), keys)
    def test_indexed_lookup_matches_reference(self, twins, probe):
        store, twin, entries = twins
        assert store.lookup(probe) == twin.lookup(probe)
        if entries:
            assert store.lookup(entries[0].key) == twin.lookup(entries[0].key)

    @settings(max_examples=100)
    @given(store_twins())
    def test_kind_view_matches_reference(self, twins):
        store, twin, __ = twins
        for kind in (EntryKind.ATTR_VALUE, EntryKind.OID):
            assert list(store.entries_of_kind(kind)) == list(
                twin.entries_of_kind(kind)
            )

    @settings(max_examples=100)
    @given(store_twins(), st.lists(keys, max_size=5))
    def test_indexes_survive_mutation_cycles(self, twins, extra_keys):
        """Warm indexes, mutate every way, and re-check against the twin."""
        store, twin, entries = twins
        if entries:
            store.lookup(entries[0].key)  # build postings
            list(store.entries_of_kind(EntryKind.ATTR_VALUE))
            store.payload_bytes()
        serial = len(entries)
        added = []
        for i, key in enumerate(extra_keys):
            entry = entry_for(key, serial + i)
            added.append(entry)
            twin.add(entry)
            if i % 2:
                store.add(entry)  # incremental: indexes updated in place
            else:
                store.add_bulk([entry])  # bulk: dirty flag + invalidation
        for entry in added:
            assert entry in store.lookup(entry.key)
            assert store.lookup(entry.key) == twin.lookup(entry.key)
        if entries:
            victim = entries[0]
            assert store.remove(victim) and twin.remove(victim)
            assert victim not in store.lookup(victim.key)
            assert store.lookup(victim.key) == twin.lookup(victim.key)
        assert store.payload_bytes() == sum(
            e.payload_size() for e in store
        )

    @settings(max_examples=100)
    @given(stores())
    def test_payload_total_tracks_mutations(self, pair):
        store, entries = pair
        expected = sum(e.payload_size() for e in entries)
        assert store.payload_bytes() == expected
        assert store.total_payload_bytes() == expected
        for entry in entries[: len(entries) // 2]:
            store.remove(entry)
            expected -= entry.payload_size()
            assert store.payload_bytes() == expected


# -- in-place maintenance vs. the from-scratch reference store ----------------

#: Few keys, kinds and objects, so runs get long, two kinds share keys and
#: a drawn entry often equals a stored one.
twin_keys = st.integers(min_value=0, max_value=11).map(lambda v: format(v, "04b"))
twin_entries = st.builds(
    IndexEntry,
    key=twin_keys,
    kind=st.sampled_from([EntryKind.ATTR_VALUE, EntryKind.INSTANCE_GRAM]),
    triple=st.builds(
        Triple,
        st.integers(min_value=0, max_value=5).map(lambda v: f"o:{v}"),
        st.just("a"),
        st.sampled_from(["x", "yy"]),
    ),
    position=st.integers(min_value=0, max_value=1),
)
prefixes = st.text(alphabet="01", max_size=4)


def same(got, expected) -> bool:
    """Equal, and object for object the same: which of two equal stored
    copies a removal took is part of what must match."""
    got, expected = list(got), list(expected)
    return got == expected and all(map(operator.is_, got, expected))


class StoreTwins(RuleBasedStateMachine):
    """``LocalDataStore`` held order-exactly equal to ``ReferenceStore``.

    Reads are rules, not invariants: which of the lazy structures exist
    when the next mutation arrives is part of what is drawn.  Every read
    compares object identity too, so a removal that takes the wrong one
    of two equal copies — or another entry of the same object under the
    same key — is caught as soon as anything reads the run.
    """

    @initialize(
        loaded=st.lists(twin_entries, max_size=120),
        read_first=st.booleans(),
    )
    def load(self, loaded, read_first):
        self.ledger = SimpleNamespace(tick=0)
        self.store = LocalDataStore(self.ledger)
        self.twin = ReferenceStore()
        self.mutations = 0
        self._mutate(lambda s: s.add_bulk(loaded))
        if read_first:  # else the first write meets an unsorted store
            self.read_everything("", "0", "1")

    def _mutate(self, call):
        """Apply ``call`` to both stores: same result, and one version and
        ledger step if, and only if, it changed what is stored."""
        size = len(self.twin)
        assert call(self.store) == call(self.twin)
        self.mutations += len(self.twin) != size
        assert self.store.version == self.ledger.tick == self.mutations
        assert len(self.store) == len(self.twin)

    def _stored(self, data, max_size):
        """Up to ``max_size`` stored entries, drawn with replacement."""
        stored = list(self.twin)
        if not stored:
            return []
        return data.draw(
            st.lists(st.sampled_from(stored), max_size=max_size), label="stored"
        )

    # -- writes ---------------------------------------------------------------

    @rule(entry=twin_entries)
    def add(self, entry):
        self._mutate(lambda s: s.add(entry))

    @rule(batch=st.lists(twin_entries, max_size=30), lazily=st.booleans())
    def add_bulk(self, batch, lazily):
        # Up to 30 onto up to a few hundred: both sides of the size rule.
        self._mutate(lambda s: s.add_bulk(iter(batch) if lazily else batch))

    @rule(data=st.data(), stranger=twin_entries)
    def remove(self, data, stranger):
        for entry in [*self._stored(data, 2), stranger]:
            self._mutate(lambda s: s.remove(entry))

    @rule(
        data=st.data(),
        strangers=st.lists(twin_entries, max_size=3),
        lazily=st.booleans(),
    )
    def remove_bulk(self, data, strangers, lazily):
        # Stored entries (the same one twice, many of one key) shuffled
        # together with ones that may be absent.
        batch = data.draw(
            st.permutations([*self._stored(data, 8), *strangers]), label="batch"
        )
        self._mutate(lambda s: s.remove_bulk(iter(batch) if lazily else batch))

    @rule(data=st.data())
    def remove_twice_past_a_sibling(self, data):
        # A repeated gram: the same object under the same key at another
        # position, then an equal-but-distinct copy behind it; naming the
        # stored entry twice must take the copy, never the sibling.
        stored = self._stored(data, 1)
        if not stored:
            return
        entry = stored[0]
        sibling = dataclasses.replace(entry, position=1 - entry.position)
        copy = dataclasses.replace(entry, triple=dataclasses.replace(entry.triple))
        self._mutate(lambda s: s.add_bulk([sibling, copy]))
        self._mutate(lambda s: s.remove_bulk([entry, entry]))

    # -- reads ----------------------------------------------------------------

    @rule(key=twin_keys)
    def lookup(self, key):
        assert same(self.store.lookup(key), self.twin.lookup(key))

    @rule(prefix=prefixes, kind=st.sampled_from(list(EntryKind)))
    def kind_scan(self, prefix, kind):
        assert same(
            self.store.entries_of_kind_prefix(kind, prefix),
            self.twin.entries_of_kind_prefix(kind, prefix),
        )
        assert same(self.store.entries_of_kind(kind), self.twin.entries_of_kind(kind))

    @rule()
    def payload(self):
        assert self.store.payload_bytes() == self.twin.payload_bytes()

    @rule(prefix=prefixes, lo=prefixes, hi=prefixes)
    def read_everything(self, prefix, lo, hi):
        assert same(self.store, self.twin)
        assert same(self.store.prefix_scan(prefix), self.twin.prefix_scan(prefix))
        assert self.store.count_prefix(prefix) == self.twin.count_prefix(prefix)
        assert same(self.store.range_scan(lo, hi), self.twin.range_scan(lo, hi))
        assert self.store.key_bounds() == self.twin.key_bounds()
        for kind in EntryKind:
            self.kind_scan(prefix, kind)
        self.payload()

    def teardown(self):
        if hasattr(self, "store"):
            self.read_everything("", "0", "1")
            for key in {entry.key for entry in self.twin}:
                self.lookup(key)


TestStoreTwins = StoreTwins.TestCase
DEEP = settings.get_profile("deep")
TestStoreTwins.settings = (
    DEEP
    if settings.default is DEEP
    else settings(max_examples=150, stateful_step_count=25, deadline=None)
)
