"""Per-peer local datastore — the ``delta(p)`` of the paper.

Each peer stores the index entries whose key falls inside its key-space
partition.  The store keeps entries sorted by key so that the three access
patterns the operators need are all cheap:

* exact-key lookup (``Retrieve``, Algorithm 1 line 2);
* prefix scan (attribute scans, schema-level gram scans);
* integer range scan (range queries / numeric similarity).

Implementation: parallel ``keys``/``entries`` lists kept sorted with
``bisect``.  Bulk loading appends and sorts once on the next read (a
dirty flag); a small write onto a sorted store is placed entry by entry
(see ``_IN_PLACE_RATIO``), so it never costs a re-sort.

On top of the sorted lists the store maintains five lazy secondary
structures, built on first use:

* a **postings map** ``key -> [entries]`` that turns exact-key lookups
  (the gram-lookup hot path of Algorithm 2) into one dict probe instead
  of a double bisect plus slice;
* **kind views** — per-:class:`EntryKind` entry lists in key order, so
  kind-restricted scans stop filtering the whole store;
* a **cached payload total**, so data-volume accounting stops re-summing
  every entry;
* an **oid column** aligned with the sorted lists — each entry's
  ``triple.oid``, the entry's own string, one pointer per entry — built
  by the first removal, so a removal finds its entries inside a key's run
  with ``list.index`` (C speed, identity compared first) instead of
  loading every entry of a run that mostly holds other objects;
* a **value view** ``(kind, value) -> rows`` over the ``ATTR_VALUE`` and
  ``VALUE`` entries, the rows in store order, built by the first value
  read — so an exact selection reads its value's rows instead of every
  long value whose truncated hash shares its key.

Every mutation goes through one maintenance routine (``_insert`` /
``_delete``) that patches whichever of the five exist, so a write costs
what it touches and a structure, once built, survives it.  Only a bulk
load — which reorders the whole store anyway — drops the postings map,
the kind views, the value view and the oid column to be rebuilt by the
next call that wants them.  A store nothing is ever removed from never
holds a column, and one nothing reads a value from never holds a view.

**Handle and content.**  A peer's :class:`LocalDataStore` is a *handle*:
its ledger and its version token.  The lists and every structure above
live in a *content* object, which the handles at one version token
share — a partition's replicas hold the very entries in the very order,
so they hold them once.  A write through a group of handles at one
token (:func:`write_through`; a peer's own ``add``/``remove`` is the
group of one) does its work once: in place when the group is every
holder of the content, else on a **copy** the group moves to first
(copy on write: the lists are copied, the lazy structures rebuilt on
demand), so a holder outside the group never sees the write.  Either
way the group leaves at one new token, and handles at one token hold
one content object.

The sorted lists stay the single source of truth.  The equivalence
reference every read is property-tested against is the
nothing-kept-between-calls store in ``tests/reference/datastore.py``.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter, is_
from types import SimpleNamespace

from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.triple import ValueType


#: A batch is inserted in place when the clean store holds at least this
#: many entries per batch entry; below that, append and one deferred sort
#: are cheaper than shifting the lists once per entry.
_IN_PLACE_RATIO = 8

#: The entry kinds the value view covers: the rows a selection
#: ``key(A#v)`` and a keyword lookup ``key(v)`` answer from.
VALUE_KINDS = (EntryKind.ATTR_VALUE, EntryKind.VALUE)

_entry_key = attrgetter("key")


class _Content:
    """One replica content: the sorted lists, every lazy structure over
    them, and how many store handles hold it."""

    __slots__ = (
        "keys", "entries", "oids", "dirty", "postings", "kind_views",
        "value_views", "payload_total", "holders",
    )

    def __init__(
        self,
        keys: list[str],
        entries: list[IndexEntry],
        dirty: bool = False,
        payload_total: int | None = None,
    ) -> None:
        self.keys = keys
        self.entries = entries
        self.dirty = dirty
        #: Lazy ``key -> [entries]`` map; ``None`` until first use and
        #: again after a bulk load (small writes patch it in place).
        self.postings: dict[str, list[IndexEntry]] | None = None
        #: Lazy per-kind ``(keys, entries)`` lists (key order); ``None``
        #: under the same rule as the postings map.
        self.kind_views: (
            dict[EntryKind, tuple[list[str], list[IndexEntry]]] | None
        ) = None
        #: Lazy ``{kind: {value: rows}}`` for :data:`VALUE_KINDS`, the rows
        #: in store order; ``None`` under the same rule.  A value's one row
        #: is held bare, not in a list: nearly every value has one, and a
        #: list per value would add as many objects for the collector to
        #: walk as the view has values.
        self.value_views: (
            dict[EntryKind, dict[ValueType, IndexEntry | list[IndexEntry]]]
            | None
        ) = None
        #: Running payload total; ``None`` when it must be recomputed.
        self.payload_total = payload_total
        #: Lazy column of each entry's ``triple.oid``, aligned with
        #: ``keys``/``entries``; ``None`` until the first removal and
        #: again after a bulk load.
        self.oids: list[str] | None = None
        #: Store handles holding this content.  Never below the true
        #: count: an over-count only costs a write one needless copy.
        self.holders = 1

    def copy(self) -> _Content:
        """A content of its own with the same lists; the lazy maps and
        views are left to be rebuilt by the reads that want them."""
        twin = _Content(
            self.keys.copy(), self.entries.copy(), self.dirty, self.payload_total
        )
        if self.oids is not None:
            twin.oids = self.oids.copy()
        return twin

    # -- writes: the one maintenance routine every mutation goes through -------

    def add(self, batch: Sequence[IndexEntry]) -> None:
        """Insert a non-empty batch (see :meth:`LocalDataStore.add_bulk`)."""
        if not self.dirty and len(batch) * _IN_PLACE_RATIO <= len(self.entries):
            for entry in batch:
                self._insert(entry)
        else:
            self.keys.extend([entry.key for entry in batch])
            self.entries.extend(batch)
            self.dirty = True
            self.postings = None
            self.kind_views = None
            self.value_views = None
            self.oids = None
            if self.payload_total is not None:
                self.payload_total += sum(e.payload_size() for e in batch)

    def remove(self, batch: Sequence[IndexEntry]) -> list[bool]:
        """Remove a batch; one flag per entry (see
        :meth:`LocalDataStore.remove_bulk`)."""
        flags = [False] * len(batch)
        by_key: dict[str, list[int]] = {}
        for position, entry in enumerate(batch):
            by_key.setdefault(entry.key, []).append(position)
        self.ensure_sorted()
        if self.oids is None:
            self.oids = [entry.triple.oid for entry in self.entries]
        keys, stored, oids = self.keys, self.entries, self.oids
        for key, positions in by_key.items():
            lo = bisect.bisect_left(keys, key)
            hi = bisect.bisect_right(keys, key, lo)
            # Where the next mention of an equal entry resumes its search:
            # behind the copy the previous mention took.  Only a key named
            # more than once needs it.
            resume: dict[IndexEntry, int] | None = (
                {} if len(positions) > 1 else None
            )
            doomed: list[int] = []
            for position in positions:
                entry = batch[position]
                oid = entry.triple.oid
                at = lo if resume is None else resume.get(entry, lo)
                try:
                    while True:
                        at = oids.index(oid, at, hi)
                        if stored[at] == entry:
                            break
                        at += 1
                except ValueError:
                    at = hi
                if resume is not None:
                    resume[entry] = at + 1
                if at < hi:
                    flags[position] = True
                    doomed.append(at - lo)
            if doomed:
                doomed.sort()
                self._delete(key, lo, doomed)
        return flags

    def _insert(self, entry: IndexEntry) -> None:
        """Place one entry into the sorted store and every live structure."""
        key = entry.key
        index = bisect.bisect_right(self.keys, key)
        self.keys.insert(index, key)
        self.entries.insert(index, entry)
        if self.oids is not None:
            self.oids.insert(index, entry.triple.oid)
        if self.postings is not None:
            # Behind the existing equal keys in the store, so last in the
            # posting list too.
            posting = self.postings.get(key)
            if posting is None:
                self.postings[key] = [entry]
            else:
                posting.append(entry)
        if self.kind_views is not None:
            view = self.kind_views.get(entry.kind)
            if view is None:
                self.kind_views[entry.kind] = ([key], [entry])
            else:
                at = bisect.bisect_right(view[0], key)
                view[0].insert(at, key)
                view[1].insert(at, entry)
        values = (
            None if self.value_views is None
            else self.value_views.get(entry.kind)
        )
        if values is not None:
            value = entry.triple.value
            rows = values.get(value)
            if rows is None:
                values[value] = entry
            elif type(rows) is list:
                # Behind the value's rows under equal keys, as in the store.
                rows.insert(bisect.bisect_right(rows, key, key=_entry_key), entry)
            else:
                values[value] = [rows, entry] if rows.key <= key else [entry, rows]
        if self.payload_total is not None:
            self.payload_total += entry.payload_size()

    def _delete(self, key: str, lo: int, doomed: list[int]) -> None:
        """Take the entries at the ascending offsets ``doomed`` of ``key``'s
        run, which starts at ``lo``, out of the sorted store and every live
        structure."""
        del self.keys[lo : lo + len(doomed)]  # a run's keys are all equal
        posting = None if self.postings is None else self.postings[key]
        views = self.kind_views
        value_views = self.value_views
        # Descending, so the offsets still to come — and the run ahead of
        # each doomed entry — stay where they were.
        for offset in reversed(doomed):
            entry = self.entries.pop(lo + offset)
            del self.oids[lo + offset]
            if posting is not None:
                del posting[offset]  # a posting list mirrors its key's run
            if views is not None:
                view_keys, view_entries = views[entry.kind]
                start = bisect.bisect_left(view_keys, key)
                at = start + offset
                # A run of one kind is mirrored by that kind's view; where
                # another kind shares the key, count this kind's entries
                # ahead of the doomed one instead.
                if at >= len(view_entries) or view_entries[at] is not entry:
                    at = start + sum(
                        1
                        for ahead in self.entries[lo : lo + offset]
                        if ahead.kind is entry.kind
                    )
                del view_keys[at]
                del view_entries[at]
            values = None if value_views is None else value_views.get(entry.kind)
            if values is not None:
                value = entry.triple.value
                rows = values[value]
                if type(rows) is not list:  # the value's one row
                    del values[value]
                else:
                    start = bisect.bisect_left(rows, key, key=_entry_key)
                    at = start + offset
                    # A run of this value's rows alone is mirrored at the
                    # same offset; where other rows share the key, find the
                    # entry by identity (a removal takes an object's first
                    # copies).
                    if at >= len(rows) or rows[at] is not entry:
                        at = start
                        while rows[at] is not entry:
                            at += 1
                    del rows[at]
                    if len(rows) == 1:
                        values[value] = rows[0]
            if self.payload_total is not None:
                self.payload_total -= entry.payload_size()
        if posting is not None and not posting:
            del self.postings[key]

    # -- lazy structures -------------------------------------------------------

    def build_postings(self) -> dict[str, list[IndexEntry]]:
        self.ensure_sorted()
        postings: dict[str, list[IndexEntry]] = {}
        for key, entry in zip(self.keys, self.entries):
            bucket = postings.get(key)
            if bucket is None:
                postings[key] = [entry]
            else:
                bucket.append(entry)
        self.postings = postings
        return postings

    def build_kind_views(self) -> dict[EntryKind, tuple[list[str], list[IndexEntry]]]:
        self.ensure_sorted()
        views: dict[EntryKind, tuple[list[str], list[IndexEntry]]] = {}
        for key, entry in zip(self.keys, self.entries):
            view = views.get(entry.kind)
            if view is None:
                views[entry.kind] = ([key], [entry])
            else:
                view[0].append(key)
                view[1].append(entry)
        self.kind_views = views
        return views

    def build_value_views(self) -> dict[EntryKind, dict]:
        self.ensure_sorted()
        views: dict[EntryKind, dict] = {kind: {} for kind in VALUE_KINDS}
        for entry in self.entries:
            values = views.get(entry.kind)
            if values is not None:
                value = entry.triple.value
                rows = values.get(value)
                if rows is None:
                    values[value] = entry
                elif type(rows) is list:
                    rows.append(entry)
                else:
                    values[value] = [rows, entry]
        self.value_views = views
        return views

    def ensure_sorted(self) -> None:
        if self.dirty:
            order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
            self.keys = [self.keys[i] for i in order]
            self.entries = [self.entries[i] for i in order]
            self.dirty = False


class LocalDataStore:
    """Sorted key → entries store for one peer: a handle on a content
    that the handles at its version token share."""

    __slots__ = ("_content", "_ledger", "version")

    def __init__(self, ledger=None) -> None:
        self._content = _Content([], [])
        #: Version token: the ledger's tick at the last write through this
        #: store (or :meth:`attach`).  Handles share a token only by one
        #: group write (:func:`write_through`) or :meth:`share`/:meth:`adopt`,
        #: and handles at one token share one content, so an equal token
        #: means the very entries in the very order, and workload memos
        #: trust a record exactly while the replica they ask reports the
        #: token it was built at.  Nothing outside this module assigns it.
        self.version = 0
        #: The owning network's shared ledger (any object with an integer
        #: ``tick``), so the network reads "did any store change?" in
        #: O(1).  A store outside any network counts on a tick of its own.
        self._ledger = ledger if ledger is not None else SimpleNamespace(tick=0)

    def attach(self, ledger) -> None:
        """Re-home this store on ``ledger`` (a peer adopting it): one
        mutation there, as it changes what the network holds."""
        self._ledger = ledger
        if self._content.holders != 1:
            _copy_for((self,))
        ledger.tick += 1
        self.version = ledger.tick

    def share(self, other: LocalDataStore) -> None:
        """Become a copy of ``other`` in O(1): hold its content at its
        token (a joining replica taking its source's data)."""
        content = other._content
        if self._content is not content:
            self._content.holders -= 1
            content.holders += 1
            self._content = content
        self.version = other.version

    def adopt(self, other: LocalDataStore) -> bool:
        """:meth:`share` ``other``'s content and token if this store lists
        its very entries in its order; returns whether it did (O(n))."""
        if self._content is not other._content and (
            len(self) != len(other) or not all(map(is_, self, other))
        ):
            return False
        self.share(other)
        return True

    def __len__(self) -> int:
        return len(self._content.entries)

    def __iter__(self) -> Iterator[IndexEntry]:
        content = self._content
        content.ensure_sorted()
        return iter(content.entries)

    def add(self, entry: IndexEntry) -> None:
        """Insert one entry: the one-element :meth:`add_bulk`."""
        self.add_bulk((entry,))

    def add_bulk(self, entries: Iterable[IndexEntry]) -> int:
        """Insert many entries; returns the number added.

        A batch small relative to a clean (sorted) store is inserted in
        place — each entry at ``bisect_right`` of its key, in batch
        order, with the secondary structures patched — so nothing the
        write did not change is rebuilt.  Anything else (an empty or
        still-unsorted store, a bulk load) appends and defers one sort to
        the next read: O(n log n) overall instead of O(n²) repeated
        insertion.  Both leave the store in the same order: a stable sort
        also puts new entries behind existing equal keys, in batch order.
        A content other handles hold is copied first (:func:`write_through`).
        """
        return len(write_through((self,), entries))

    def remove(self, entry: IndexEntry) -> bool:
        """Remove one entry; returns False if it was not present."""
        return self.remove_bulk((entry,))[0]

    def remove_bulk(self, entries: Iterable[IndexEntry]) -> list[bool]:
        """Remove many entries; one flag per given entry, in order.

        Equivalent to calling :meth:`remove` on each entry in turn — a
        stored duplicate goes one at a time, so naming an entry twice
        removes two copies if two exist — but each distinct key's run of
        the sorted store is walked once for all entries of the batch
        under it (a batch of triples of one attribute shares its gram
        keys), and the store counts as mutated once, and only if
        something was removed.

        A gram key's run holds hundreds of entries, nearly all of other
        objects, so an entry's stored copies are found in the oid column
        with ``list.index`` bounded to the run — a C-speed scan that
        compares identity first — and each hit is confirmed with ``==``.
        The k-th mention of an entry takes its k-th equal stored copy in
        run order.
        """
        return write_through((self,), entries, remove=True)

    # -- reads ---------------------------------------------------------------

    def lookup(self, key: str) -> list[IndexEntry]:
        """All entries stored under exactly ``key`` (postings-map probe)."""
        content = self._content
        postings = content.postings
        if postings is None:
            postings = content.build_postings()
        return list(postings.get(key, ()))

    def prefix_scan(self, prefix: str) -> list[IndexEntry]:
        """All entries whose key starts with ``prefix``.

        Mirrors Algorithm 1's ``key(d) ⊇ key`` condition: a search key that
        is shorter than stored keys matches every entry it prefixes.
        """
        content = self._content
        content.ensure_sorted()
        lo, hi = _prefix_bounds(content.keys, prefix)
        return content.entries[lo:hi]

    def range_scan(self, lo_key: str, hi_key: str) -> list[IndexEntry]:
        """All entries with ``lo_key <= key <= hi_key`` (inclusive)."""
        content = self._content
        content.ensure_sorted()
        lo = bisect.bisect_left(content.keys, lo_key)
        hi = bisect.bisect_right(content.keys, hi_key)
        return content.entries[lo:hi]

    def entries_of_kind(self, kind: EntryKind) -> Iterator[IndexEntry]:
        """All entries of one index family, in key order (cached view)."""
        content = self._content
        views = content.kind_views
        if views is None:
            views = content.build_kind_views()
        view = views.get(kind)
        return iter(view[1] if view is not None else ())

    def entries_of_kind_prefix(
        self, kind: EntryKind, prefix: str
    ) -> list[IndexEntry]:
        """Entries of one kind whose key starts with ``prefix``, in key order.

        Combines the kind view with a bisect on its key list — the naive
        operator's region scan: only the queried attribute's slice of one
        index family, without filtering either the whole store or the
        whole kind view.
        """
        content = self._content
        views = content.kind_views
        if views is None:
            views = content.build_kind_views()
        view = views.get(kind)
        if view is None:
            return []
        lo, hi = _prefix_bounds(view[0], prefix)
        return view[1][lo:hi]

    def entries_with_value(
        self, kind: EntryKind, value: ValueType
    ) -> list[IndexEntry]:
        """The ``kind`` entries whose triple value equals ``value``, in
        store order; ``kind`` is one of :data:`VALUE_KINDS`.

        One probe of the value view, where a scan of ``key(A#v)``'s run
        would load every long value whose truncated hash shares the key.
        The dict agrees with ``==`` for every legal value: NaN and
        booleans never reach a triple, and numbers that compare equal
        hash equal, so ``1`` finds the rows of ``1.0`` too.
        """
        content = self._content
        views = content.value_views
        if views is None:
            views = content.build_value_views()
        rows = views[kind].get(value)
        if rows is None:
            return []
        return rows.copy() if type(rows) is list else [rows]

    def payload_bytes(self) -> int:
        """Total approximate payload size of all stored entries (cached)."""
        content = self._content
        if content.payload_total is None:
            content.payload_total = sum(
                entry.payload_size() for entry in content.entries
            )
        return content.payload_total


# -- group writes ------------------------------------------------------------


def write_through(
    stores: Sequence[LocalDataStore],
    entries: Iterable[IndexEntry],
    remove: bool = False,
) -> list[bool]:
    """Add (or remove) ``entries`` through ``stores`` — handles of one
    ledger at one version token, such as a partition's contacted
    replicas — once: their one content takes the batch, copied for them
    first unless they are all its holders, and they leave at one new
    token.  One flag per entry, as :meth:`LocalDataStore.remove_bulk`
    (every one true for an add); a removal counts as a write, and keeps
    its copy, only if it removed something."""
    batch = entries if isinstance(entries, (list, tuple)) else list(entries)
    if not batch:
        return []
    first = stores[0]
    content = first._content
    for store in stores[1:]:
        # Equal tokens name one content, but never-written stores (token
        # 0, empty) each start with their own.
        if store._content is not content:
            if store._content.entries or content.entries:
                raise ValueError("a group write needs stores at one token")
            store.share(first)
    owned = content if content.holders == len(stores) else _copy_for(stores)
    if not remove:
        owned.add(batch)
        flags = [True] * len(batch)
    else:
        flags = owned.remove(batch)
        if True not in flags:
            if owned is not content:  # nothing removed: back where they were
                content.holders += len(stores)
                for store in stores:
                    store._content = content
            return flags
    ledger = first._ledger
    ledger.tick += 1  # one tick, the new token of every store written
    for store in stores:
        store.version = ledger.tick
    return flags


def group_by_token(
    stores: Iterable[LocalDataStore],
) -> dict[int, list[LocalDataStore]]:
    """``stores`` grouped by version token, in order of first appearance:
    each group holds one content and takes a write once."""
    groups: dict[int, list[LocalDataStore]] = {}
    for store in stores:
        groups.setdefault(store.version, []).append(store)
    return groups


def _copy_for(stores: Sequence[LocalDataStore]) -> _Content:
    """Copy on write: ``stores``, some but not all holders of their
    content, move to a copy of it that they alone hold."""
    content = stores[0]._content
    content.holders -= len(stores)
    content = content.copy()
    content.holders = len(stores)
    for store in stores:
        store._content = content
    return content


def _prefix_bounds(keys: list[str], prefix: str) -> tuple[int, int]:
    """The slice of the sorted binary ``keys`` that extends ``prefix``."""
    lo = bisect.bisect_left(keys, prefix)
    if not prefix:
        return lo, len(keys)
    # '2' sorts after both key characters, so ``prefix + '2'`` is a strict
    # upper bound of exactly the keys extending ``prefix``.
    return lo, bisect.bisect_left(keys, prefix + "2", lo)
