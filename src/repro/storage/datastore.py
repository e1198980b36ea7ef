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

On top of the sorted lists the store maintains four lazy secondary
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
  loading every entry of a run that mostly holds other objects.

Every mutation goes through one maintenance routine (``_insert`` /
``_delete``) that patches whichever of the four exist, so a write costs
what it touches and a structure, once built, survives it.  Only a bulk
load — which reorders the whole store anyway — drops the postings map,
the kind views and the oid column to be rebuilt by the next call that
wants them.  A store nothing is ever removed from never holds a column.

The sorted lists stay the single source of truth.  The equivalence
reference every read is property-tested against is the
nothing-kept-between-calls store in ``tests/reference/datastore.py``.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator

from repro.storage.indexing import EntryKind, IndexEntry


#: A batch is inserted in place when the clean store holds at least this
#: many entries per batch entry; below that, append and one deferred sort
#: are cheaper than shifting the lists once per entry.
_IN_PLACE_RATIO = 8


class LocalDataStore:
    """Sorted key → entries store for one peer."""

    __slots__ = (
        "_keys", "_entries", "_oids", "_dirty", "_postings", "_kind_views",
        "_payload_total", "_ledger", "version",
    )

    def __init__(self, ledger=None) -> None:
        self._keys: list[str] = []
        self._entries: list[IndexEntry] = []
        self._dirty = False
        #: Mutation counter: bumped once by every call that changed the
        #: store (``add``/``add_bulk``/``remove``/``remove_bulk``).
        #: Workload memos snapshot it at compute time and treat any change
        #: as a cache invalidation, turning the "static stores only"
        #: contract into an enforced check instead of a convention.
        self.version = 0
        #: The owning network's shared ledger (any object with an integer
        #: ``tick``), advanced together with ``version`` so the network
        #: reads "did any store change?" in O(1).  ``None`` for a store
        #: outside any network.
        self._ledger = ledger
        #: Lazy ``key -> [entries]`` map; ``None`` until first use and
        #: again after a bulk load (small writes patch it in place).
        self._postings: dict[str, list[IndexEntry]] | None = None
        #: Lazy per-kind ``(keys, entries)`` lists (key order); ``None``
        #: under the same rule as the postings map.
        self._kind_views: (
            dict[EntryKind, tuple[list[str], list[IndexEntry]]] | None
        ) = None
        #: Running payload total; ``None`` when it must be recomputed.
        self._payload_total: int | None = None
        #: Lazy column of each entry's ``triple.oid``, aligned with
        #: ``_keys``/``_entries``; ``None`` until the first removal and
        #: again after a bulk load.
        self._oids: list[str] | None = None

    def attach(self, ledger) -> None:
        """Re-home this store on ``ledger`` (a peer adopting it).

        Swapping a peer's store changes what the network holds, so the
        adoption itself counts as one mutation on the new ledger.
        """
        self._ledger = ledger
        ledger.tick += 1

    def _mutated(self) -> None:
        self.version += 1
        if self._ledger is not None:
            self._ledger.tick += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[IndexEntry]:
        self._ensure_sorted()
        return iter(self._entries)

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
        """
        batch = entries if isinstance(entries, (list, tuple)) else list(entries)
        if not batch:
            return 0
        if not self._dirty and len(batch) * _IN_PLACE_RATIO <= len(self._entries):
            for entry in batch:
                self._insert(entry)
        else:
            self._keys.extend([entry.key for entry in batch])
            self._entries.extend(batch)
            self._dirty = True
            self._postings = None
            self._kind_views = None
            self._oids = None
            if self._payload_total is not None:
                self._payload_total += sum(e.payload_size() for e in batch)
        self._mutated()
        return len(batch)

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
        batch = entries if isinstance(entries, (list, tuple)) else list(entries)
        flags = [False] * len(batch)
        by_key: dict[str, list[int]] = {}
        for position, entry in enumerate(batch):
            by_key.setdefault(entry.key, []).append(position)
        self._ensure_sorted()
        if self._oids is None:
            self._oids = [entry.triple.oid for entry in self._entries]
        keys, stored, oids = self._keys, self._entries, self._oids
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
        if True in flags:
            self._mutated()
        return flags

    # -- in-place maintenance: the one routine every mutation goes through ------

    def _insert(self, entry: IndexEntry) -> None:
        """Place one entry into the sorted store and every live structure."""
        key = entry.key
        index = bisect.bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self._entries.insert(index, entry)
        if self._oids is not None:
            self._oids.insert(index, entry.triple.oid)
        if self._postings is not None:
            # Behind the existing equal keys in the store, so last in the
            # posting list too.
            posting = self._postings.get(key)
            if posting is None:
                self._postings[key] = [entry]
            else:
                posting.append(entry)
        if self._kind_views is not None:
            view = self._kind_views.get(entry.kind)
            if view is None:
                self._kind_views[entry.kind] = ([key], [entry])
            else:
                at = bisect.bisect_right(view[0], key)
                view[0].insert(at, key)
                view[1].insert(at, entry)
        if self._payload_total is not None:
            self._payload_total += entry.payload_size()

    def _delete(self, key: str, lo: int, doomed: list[int]) -> None:
        """Take the entries at the ascending offsets ``doomed`` of ``key``'s
        run, which starts at ``lo``, out of the sorted store and every live
        structure."""
        del self._keys[lo : lo + len(doomed)]  # a run's keys are all equal
        posting = None if self._postings is None else self._postings[key]
        views = self._kind_views
        # Descending, so the offsets still to come — and the run ahead of
        # each doomed entry — stay where they were.
        for offset in reversed(doomed):
            entry = self._entries.pop(lo + offset)
            del self._oids[lo + offset]
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
                        for ahead in self._entries[lo : lo + offset]
                        if ahead.kind is entry.kind
                    )
                del view_keys[at]
                del view_entries[at]
            if self._payload_total is not None:
                self._payload_total -= entry.payload_size()
        if posting is not None and not posting:
            del self._postings[key]

    # -- reads ---------------------------------------------------------------

    def lookup(self, key: str) -> list[IndexEntry]:
        """All entries stored under exactly ``key`` (postings-map probe)."""
        if self._postings is None:
            self._build_postings()
        return list(self._postings.get(key, ()))

    def prefix_scan(self, prefix: str) -> list[IndexEntry]:
        """All entries whose key starts with ``prefix``.

        Mirrors Algorithm 1's ``key(d) ⊇ key`` condition: a search key that
        is shorter than stored keys matches every entry it prefixes.
        """
        self._ensure_sorted()
        lo = bisect.bisect_left(self._keys, prefix)
        result: list[IndexEntry] = []
        for index in range(lo, len(self._keys)):
            if not self._keys[index].startswith(prefix):
                break
            result.append(self._entries[index])
        return result

    def range_scan(self, lo_key: str, hi_key: str) -> list[IndexEntry]:
        """All entries with ``lo_key <= key <= hi_key`` (inclusive)."""
        self._ensure_sorted()
        lo = bisect.bisect_left(self._keys, lo_key)
        hi = bisect.bisect_right(self._keys, hi_key)
        return self._entries[lo:hi]

    def count_prefix(self, prefix: str) -> int:
        """Number of entries under ``prefix`` without materializing them."""
        self._ensure_sorted()
        lo = bisect.bisect_left(self._keys, prefix)
        if len(prefix):
            # '2' sorts after both key characters, so ``prefix + '2'`` is a
            # strict upper bound of exactly the keys extending ``prefix``.
            hi = bisect.bisect_left(self._keys, prefix + "2")
        else:
            hi = len(self._keys)
        return hi - lo

    def entries_of_kind(self, kind: EntryKind) -> Iterator[IndexEntry]:
        """All entries of one index family, in key order (cached view)."""
        if self._kind_views is None:
            self._build_kind_views()
        view = self._kind_views.get(kind)
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
        if self._kind_views is None:
            self._build_kind_views()
        view = self._kind_views.get(kind)
        if view is None:
            return []
        view_keys, view_entries = view
        lo = bisect.bisect_left(view_keys, prefix)
        if prefix:
            # Same upper bound trick as count_prefix: keys are binary
            # strings, so prefix + '2' strictly bounds its extensions.
            hi = bisect.bisect_left(view_keys, prefix + "2")
        else:
            hi = len(view_keys)
        return view_entries[lo:hi]

    def key_bounds(self) -> tuple[str, str] | None:
        """Smallest and largest stored key, or None when empty."""
        self._ensure_sorted()
        if not self._keys:
            return None
        return self._keys[0], self._keys[-1]

    def payload_bytes(self) -> int:
        """Total approximate payload size of all stored entries (cached)."""
        if self._payload_total is None:
            self._payload_total = sum(
                entry.payload_size() for entry in self._entries
            )
        return self._payload_total

    # The bench report and network aggregation use the explicit name.
    total_payload_bytes = payload_bytes

    def local_density(self, prefix: str, key_bits: int) -> float:
        """Entries per key-space slot under ``prefix``.

        Used by the top-N operator (Algorithm 4 lines 1–3) to estimate a
        first query range from local data density.  A prefix of length
        ``l`` covers ``2 ** (key_bits - l)`` slots.
        """
        count = self.count_prefix(prefix)
        slots = 1 << (key_bits - len(prefix))
        return count / slots

    # -- secondary-index maintenance -----------------------------------------

    def _build_postings(self) -> None:
        self._ensure_sorted()
        postings: dict[str, list[IndexEntry]] = {}
        for key, entry in zip(self._keys, self._entries):
            bucket = postings.get(key)
            if bucket is None:
                postings[key] = [entry]
            else:
                bucket.append(entry)
        self._postings = postings

    def _build_kind_views(self) -> None:
        self._ensure_sorted()
        views: dict[EntryKind, tuple[list[str], list[IndexEntry]]] = {}
        for key, entry in zip(self._keys, self._entries):
            view = views.get(entry.kind)
            if view is None:
                views[entry.kind] = ([key], [entry])
            else:
                view[0].append(key)
                view[1].append(entry)
        self._kind_views = views

    def _ensure_sorted(self) -> None:
        if self._dirty:
            order = sorted(range(len(self._keys)), key=self._keys.__getitem__)
            self._keys = [self._keys[i] for i in order]
            self._entries = [self._entries[i] for i in order]
            self._dirty = False
