"""Unit tests for the per-peer sorted datastore."""

import operator
from types import SimpleNamespace

import pytest

from repro.core.config import StoreConfig
from repro.overlay.hashing import CompositeKeyCodec
from repro.storage.datastore import LocalDataStore
from repro.storage.indexing import EntryFactory, EntryKind, IndexEntry
from repro.storage.triple import Triple
from tests.reference.datastore import ReferenceStore


def entries_for_words(words):
    config = StoreConfig(seed=1)
    fac = EntryFactory(config, CompositeKeyCodec(config))
    entries = []
    for i, w in enumerate(words):
        entries.extend(fac.entries_for(Triple(f"w:{i}", "t:x", w)))
    return entries


@pytest.fixture()
def loaded():
    return entries_for_words(["alpha", "beta", "gamma", "delta"])


@pytest.fixture()
def store(loaded):
    s = LocalDataStore()
    s.add_bulk(loaded)
    return s


@pytest.fixture()
def twin(loaded):
    """The same load in ``tests/reference/datastore.py``; a test mirrors
    its writes on both."""
    t = ReferenceStore()
    t.add_bulk(loaded)
    return t


class TestBasics:
    def test_len(self, store):
        assert len(store) > 0

    def test_bulk_count(self):
        s = LocalDataStore()
        entries = entries_for_words(["one"])
        assert s.add_bulk(entries) == len(entries)

    def test_iteration_sorted(self, store):
        keys = [e.key for e in store]
        assert keys == sorted(keys)

    def test_incremental_add_keeps_order(self, store):
        extra = entries_for_words(["omega"])
        for entry in extra:
            store.add(entry)
        keys = [e.key for e in store]
        assert keys == sorted(keys)

    def test_remove_present(self, store):
        entry = next(iter(store))
        assert store.remove(entry)
        assert entry not in list(store)

    def test_remove_absent(self, store):
        foreign = entries_for_words(["nothere"])[0]
        assert not store.remove(foreign)


class TestVersionToken:
    """Stores share a token only through one write's ``tokens`` map or a
    checked :meth:`LocalDataStore.adopt`."""

    def test_one_write_from_one_token_leaves_one_token(self, loaded):
        ledger = SimpleNamespace(tick=0)
        a, b, c = (LocalDataStore(ledger) for __ in range(3))
        for s in (a, b, c):
            s.add_bulk(loaded)
        assert b.adopt(a) and not c.adopt(LocalDataStore())
        tokens: dict[int, int] = {}
        extra = entries_for_words(["omega"])
        for s in (a, b, c):
            s.add_bulk(extra, tokens)
        shared = a.version
        assert b.version == shared != c.version and len(tokens) == 2
        removed: dict[int, int] = {}
        assert a.remove_bulk(extra[:1], removed) == [True]
        assert b.remove_bulk(extra[:1], removed) == [True]
        assert a.version == b.version and removed == {shared: a.version}

    def test_a_store_adopts_only_its_very_entries_in_order(self, loaded):
        ledger = SimpleNamespace(tick=0)
        store, copy, equal = (LocalDataStore(ledger) for __ in range(3))
        store.add_bulk(loaded)
        copy.add_bulk(list(store))
        assert copy.version != store.version
        assert copy.adopt(store) and copy.version == store.version
        equal.add_bulk(entries_for_words(["alpha", "beta", "gamma", "delta"]))
        assert list(equal) == list(store) and not equal.adopt(store)
        copy.add(next(iter(store)))
        assert not copy.adopt(store) and copy.version != store.version


class TestRemoveInLongRuns:
    """One gram key shared by many entries, some of the same object."""

    @staticmethod
    def run_entries():
        # "abab..." repeats its grams, so one oid owns several entries
        # under one key; the other words share those keys.
        return [
            e
            for e in entries_for_words(["abababab", "ababab", "abab", "babab"])
            if e.kind is EntryKind.INSTANCE_GRAM
        ]

    def test_removes_exactly_the_given_entry(self):
        entries = self.run_entries()
        store, twin = LocalDataStore(), ReferenceStore()
        store.add_bulk(entries)
        twin.add_bulk(entries)
        key = max({e.key for e in entries}, key=lambda k: len(store.lookup(k)))
        run = store.lookup(key)  # warms the postings map
        assert len(run) >= 4
        victim = run[len(run) // 2]
        assert store.remove(victim) and twin.remove(victim)
        expected = [e for e in run if e is not victim]
        assert store.lookup(key) == expected == twin.lookup(key)
        assert not store.remove(victim)

    def test_duplicate_entries_go_one_at_a_time(self):
        entry = self.run_entries()[0]
        store = LocalDataStore()
        store.add_bulk([entry, entry])
        store.lookup(entry.key)
        assert store.remove(entry)
        assert store.lookup(entry.key) == [entry]
        assert store.remove(entry)
        assert store.lookup(entry.key) == []
        assert not store.remove(entry)


class TestRemoveBulk:
    def test_flags_follow_the_batch(self, store):
        present = list(store)[:3]
        absent = entries_for_words(["nothere"])[0]
        batch = [present[0], absent, present[1], present[0]]
        assert store.remove_bulk(batch) == [True, False, True, False]
        assert present[2] in list(store)
        assert present[0] not in list(store)

    def test_equals_remove_in_turn(self):
        entries = TestRemoveInLongRuns.run_entries()
        one, other, twin = LocalDataStore(), LocalDataStore(), ReferenceStore()
        for s in (one, other, twin):
            s.add_bulk(entries + entries[:2])
            s.lookup(entries[0].key)
            list(s.entries_of_kind(EntryKind.INSTANCE_GRAM))
        batch = entries[::2] + entries[:2] + entries[:2]
        flags = one.remove_bulk(iter(batch))
        assert flags == [other.remove(e) for e in batch] == twin.remove_bulk(batch)
        assert list(one) == list(other) == list(twin)
        for key in {e.key for e in entries}:
            assert one.lookup(key) == other.lookup(key) == twin.lookup(key)

    def test_one_version_step_per_call_that_removed(self, store):
        entries = list(store)
        before = store.version
        assert store.remove_bulk(entries[:4]) == [True] * 4
        assert store.version == before + 1
        assert store.remove_bulk(entries[:4]) == [False] * 4
        assert store.remove_bulk([]) == []
        assert not store.remove(entries[0])
        assert store.version == before + 1


RUN_KEY, NEXT_KEY = "0101", "0110"


def value_entry(oid, value, key=RUN_KEY):
    return IndexEntry(key, EntryKind.ATTR_VALUE, Triple(oid, "t:x", value))


def gram_entry(oid, position, key=RUN_KEY):
    triple = Triple(oid, "t:x", "abab")
    return IndexEntry(key, EntryKind.INSTANCE_GRAM, triple, "ab", position, 4)


class TestRemoveEqualsReference:
    """The oid-column search against ``tests/reference/datastore.py``:
    the same flags, and the same objects left in the same order in the
    store, the posting list and the kind views."""

    @staticmethod
    def check(loaded, batch):
        store, twin = LocalDataStore(), ReferenceStore()
        store.add_bulk(loaded)
        twin.add_bulk(loaded)
        store.lookup(RUN_KEY)  # the posting list and kind views are live
        list(store.entries_of_kind(EntryKind.ATTR_VALUE))
        version = store.version
        flags = store.remove_bulk(batch)
        assert flags == twin.remove_bulk(batch)
        assert store.version == version + (True in flags)

        def same(got, expected):
            got, expected = list(got), list(expected)
            assert len(got) == len(expected)
            assert all(a is b for a, b in zip(got, expected))

        same(store, twin)
        same(store.lookup(RUN_KEY), twin.lookup(RUN_KEY))
        for kind in EntryKind:
            same(store.entries_of_kind(kind), twin.entries_of_kind(kind))
        assert store.payload_bytes() == twin.payload_bytes()
        return flags

    def test_equal_but_distinct_copies_go_in_run_order(self):
        first, second, third = (value_entry("o:1", "x") for __ in range(3))
        loaded = [first, value_entry("o:2", "x"), second, value_entry("o:1", "y"), third]
        assert self.check(loaded, [value_entry("o:1", "x")]) == [True]
        assert self.check(loaded, [third, second]) == [True, True]

    def test_one_entry_named_twice_takes_two_copies(self):
        entry, copy = value_entry("o:1", "x"), value_entry("o:1", "x")
        loaded = [entry, value_entry("o:1", "y"), value_entry("o:2", "x"), copy]
        assert self.check(loaded, [entry, entry]) == [True, True]
        assert self.check(loaded, [copy, entry, entry]) == [True, True, False]

    def test_two_kinds_under_one_key(self):
        loaded = [
            gram_entry("o:1", 0),
            value_entry("o:1", "abab"),
            gram_entry("o:2", 0),
            gram_entry("o:1", 2),
            value_entry("o:2", "abab"),
        ]
        assert self.check(loaded, [gram_entry("o:1", 2)]) == [True]
        assert self.check(loaded, [value_entry("o:2", "abab"), gram_entry("o:1", 0)]) == [True, True]

    def test_absent_entry_of_a_stored_object(self):
        loaded = [gram_entry("o:1", 0), value_entry("o:1", "x"), gram_entry("o:1", 0, NEXT_KEY)]
        batch = [gram_entry("o:1", 2), value_entry("o:1", 1), gram_entry("o:3", 0)]
        assert self.check(loaded, batch) == [False, False, False]
        assert self.check(loaded, [gram_entry("o:1", 2), gram_entry("o:1", 0)]) == [False, True]

    def test_search_stays_inside_the_run(self, monkeypatch):
        """Only the run's entries of the wanted object are compared, never
        the next key's entries of the same object."""
        loaded = [value_entry("o:1", "x"), value_entry("o:2", "x")]
        loaded += [value_entry("o:1", v, NEXT_KEY) for v in ("x", "y", "z")]
        store = LocalDataStore()
        store.add_bulk(loaded)
        compared = []
        equals = IndexEntry.__eq__

        def counting_eq(self, other):
            compared.append((self.key, self.triple.oid))
            return equals(self, other)

        monkeypatch.setattr(IndexEntry, "__eq__", counting_eq)
        assert store.remove_bulk([value_entry("o:1", "w")]) == [False]
        assert compared == [(RUN_KEY, "o:1")]


class TestReads:
    def test_lookup_exact(self, store):
        entry = next(iter(store))
        found = store.lookup(entry.key)
        assert entry in found
        assert all(e.key == entry.key for e in found)

    def test_lookup_missing(self, store):
        assert store.lookup("0" * 32) == [] or all(
            e.key == "0" * 32 for e in store.lookup("0" * 32)
        )

    def test_prefix_scan(self, store):
        entry = next(iter(store))
        prefix = entry.key[:10]
        found = store.prefix_scan(prefix)
        assert entry in found
        assert all(e.key.startswith(prefix) for e in found)

    def test_prefix_scan_empty_prefix_returns_all(self, store):
        assert len(store.prefix_scan("")) == len(store)

    def test_range_scan_inclusive(self, store):
        keys = sorted(e.key for e in store)
        lo, hi = keys[2], keys[-3]
        found = store.range_scan(lo, hi)
        assert all(lo <= e.key <= hi for e in found)
        assert len(found) == sum(1 for k in keys if lo <= k <= hi)

    def test_entries_of_kind(self, store):
        oids = list(store.entries_of_kind(EntryKind.OID))
        assert oids
        assert all(e.kind is EntryKind.OID for e in oids)

    def test_payload_bytes_positive(self, store):
        assert store.payload_bytes() > 0


class TestSecondaryIndexes:
    """Postings map and kind views against ``tests/reference/datastore.py``,
    fed the same writes: the reference keeps equal keys in arrival order,
    so an index that agrees with a misordered sorted list still fails."""

    def test_lookup_equals_reference(self, store, twin):
        for entry in store:
            assert store.lookup(entry.key) == twin.lookup(entry.key)

    def test_postings_track_incremental_add(self, store, twin):
        entry = next(iter(store))
        store.lookup(entry.key)  # warm the postings map
        extra = entries_for_words(["omega"])
        for e in extra:
            store.add(e)
            twin.add(e)
        for e in extra:
            assert e in store.lookup(e.key)
            assert store.lookup(e.key) == twin.lookup(e.key)

    @pytest.mark.parametrize("count", [2, None])
    def test_postings_follow_bulk_add(self, store, twin, count):
        """A batch small or large against the store: lookups stay exact."""
        for entry in list(store):
            store.lookup(entry.key)  # warm
        extra = entries_for_words(["sigma", "tau"])[:count]
        store.add_bulk(extra)
        twin.add_bulk(extra)
        for key in {e.key for e in store}:
            assert store.lookup(key) == twin.lookup(key)
        for e in extra:
            assert e in store.lookup(e.key)

    def test_postings_track_remove(self, store, twin):
        entry = next(iter(store))
        store.lookup(entry.key)  # warm
        assert store.remove(entry) and twin.remove(entry)
        assert entry not in store.lookup(entry.key)
        assert store.lookup(entry.key) == twin.lookup(entry.key)

    def test_kind_view_equals_reference(self, store, twin):
        for kind in EntryKind:
            assert list(store.entries_of_kind(kind)) == list(
                twin.entries_of_kind(kind)
            )

    def test_kind_prefix_scan_equals_filtered_prefix_scan(self, store):
        entry = next(iter(store))
        for width in (0, 4, 10):
            prefix = entry.key[:width]
            for kind in (EntryKind.ATTR_VALUE, EntryKind.OID):
                expected = [
                    e for e in store.prefix_scan(prefix) if e.kind is kind
                ]
                assert store.entries_of_kind_prefix(kind, prefix) == expected

    def test_kind_prefix_scan_absent_kind(self):
        assert LocalDataStore().entries_of_kind_prefix(EntryKind.OID, "") == []

    def test_kind_views_follow_every_mutation(self, store, twin):
        def check():
            for kind in EntryKind:
                assert list(store.entries_of_kind(kind)) == list(
                    twin.entries_of_kind(kind)
                )

        check()  # warm
        extra = entries_for_words(["extra"])
        store.add(extra[0])
        twin.add(extra[0])
        check()
        store.add_bulk(extra[1:])
        twin.add_bulk(extra[1:])
        check()
        flags = store.remove_bulk(extra)
        assert flags == twin.remove_bulk(extra) == [True] * len(extra)
        check()

    def test_value_view_orders_a_value_gaining_and_losing_rows(self):
        """A value's one row gains a row behind it under an equal key, loses
        the first, gains one ahead and one at the back, then loses them
        all, then comes back in a bulk load: the view keeps store order
        throughout."""
        store, twin = LocalDataStore(), ReferenceStore()
        filler = [
            IndexEntry(format(i, "08b"), EntryKind.OID, Triple(f"f:{i}", "a", i))
            for i in range(16)
        ]
        late, early, tie = (
            IndexEntry(key, EntryKind.ATTR_VALUE, Triple(oid, "a", "v"))
            for key, oid in (("11000000", "o:1"), ("00000001", "o:2"),
                             ("11000000", "o:3"))
        )

        def check():
            got = store.entries_with_value(EntryKind.ATTR_VALUE, "v")
            expected = twin.entries_with_value(EntryKind.ATTR_VALUE, "v")
            assert got == expected
            assert all(map(operator.is_, got, expected))

        for s in (store, twin):
            s.add_bulk([*filler, late])
        check()  # builds the view: one row
        for entry in (tie, late, early, late, early, tie, late):
            if entry in twin.entries_with_value(EntryKind.ATTR_VALUE, "v"):
                assert store.remove(entry) and twin.remove(entry)
            else:
                store.add(entry)  # in place: the view is patched
                twin.add(entry)
            check()
        assert store.entries_with_value(EntryKind.ATTR_VALUE, "v") == []
        for s in (store, twin):
            s.add_bulk([late, early, tie])  # a bulk load drops the view
        check()

    def test_payload_cache_tracks_add_and_remove(self, store):
        total = store.payload_bytes()
        extra = entries_for_words(["rho"])
        store.add_bulk(extra)
        total += sum(e.payload_size() for e in extra)
        assert store.payload_bytes() == total
        store.remove(extra[0])
        total -= extra[0].payload_size()
        assert store.payload_bytes() == total
        assert store.payload_bytes() == sum(e.payload_size() for e in store)
