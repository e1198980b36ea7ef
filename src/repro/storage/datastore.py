"""Per-peer local datastore — the ``delta(p)`` of the paper.

Each peer stores the index entries whose key falls inside its key-space
partition.  The store keeps entries sorted by key so that the three access
patterns the operators need are all cheap:

* exact-key lookup (``Retrieve``, Algorithm 1 line 2);
* prefix scan (attribute scans, schema-level gram scans);
* integer range scan (range queries / numeric similarity).

Implementation: a list of ``(key, entry)`` kept sorted with ``bisect``.
Bulk loading appends then sorts once; incremental inserts use
``insort``-style insertion.  A small dirty flag avoids resorting on every
read after a bulk load.

On top of the sorted lists the store maintains three lazy secondary
structures, built on first use and kept consistent across mutations:

* a **postings map** ``key -> [entries]`` that turns exact-key lookups
  (the gram-lookup hot path of Algorithm 2) into one dict probe instead
  of a double bisect plus slice;
* **kind views** — per-:class:`EntryKind` entry lists in key order, so
  kind-restricted scans stop filtering the whole store;
* a **cached payload total** maintained incrementally, so data-volume
  accounting stops re-summing every entry.

The sorted lists stay the single source of truth; :meth:`lookup_scan`
keeps the index-free bisect path alive as the equivalence reference for
tests and micro-benchmarks.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator

from repro.storage.indexing import EntryKind, IndexEntry


class LocalDataStore:
    """Sorted key → entries store for one peer."""

    __slots__ = (
        "_keys", "_entries", "_dirty", "_postings", "_kind_views",
        "_payload_total", "_ledger", "version",
    )

    def __init__(self, ledger=None) -> None:
        self._keys: list[str] = []
        self._entries: list[IndexEntry] = []
        self._dirty = False
        #: Mutation counter: bumped by every ``add``/``add_bulk``/``remove``.
        #: Workload memos snapshot it at compute time and treat any change
        #: as a cache invalidation, turning the "static stores only"
        #: contract into an enforced check instead of a convention.
        self.version = 0
        #: The owning network's shared ledger (any object with an integer
        #: ``tick``), advanced together with ``version`` so the network
        #: reads "did any store change?" in O(1).  ``None`` for a store
        #: outside any network.
        self._ledger = ledger
        #: Lazy ``key -> [entries]`` map; ``None`` until first use or after
        #: a bulk mutation invalidated it.
        self._postings: dict[str, list[IndexEntry]] | None = None
        #: Lazy per-kind ``(keys, entries)`` lists (key order); ``None``
        #: when stale.
        self._kind_views: (
            dict[EntryKind, tuple[list[str], list[IndexEntry]]] | None
        ) = None
        #: Running payload total; ``None`` when it must be recomputed.
        self._payload_total: int | None = None

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
        """Insert one entry, keeping the store sorted."""
        self._mutated()
        self._ensure_sorted()
        index = bisect.bisect_right(self._keys, entry.key)
        self._keys.insert(index, entry.key)
        self._entries.insert(index, entry)
        if self._postings is not None:
            # bisect_right inserts after existing equal keys, so appending
            # to the posting list preserves the sorted-store ordering.
            self._postings.setdefault(entry.key, []).append(entry)
        self._kind_views = None
        if self._payload_total is not None:
            self._payload_total += entry.payload_size()

    def add_bulk(self, entries: Iterable[IndexEntry]) -> int:
        """Append many entries; sorting is deferred to the next read.

        Returns the number of entries added.  Bulk loading a peer's share
        of a large dataset this way is O(n log n) overall instead of
        O(n²) repeated insertion.
        """
        count = 0
        added_bytes = 0
        track_payload = self._payload_total is not None
        for entry in entries:
            self._keys.append(entry.key)
            self._entries.append(entry)
            if track_payload:
                added_bytes += entry.payload_size()
            count += 1
        if count:
            self._mutated()
            self._dirty = True
            self._postings = None
            self._kind_views = None
            if track_payload:
                self._payload_total += added_bytes
        return count

    def remove(self, entry: IndexEntry) -> bool:
        """Remove one entry; returns False if it was not present.

        Gram keys of long strings collect hundreds of entries, so the
        equal-key run is bounded by bisection and each candidate is
        screened on its oid before the full (field-by-field) comparison.
        """
        self._ensure_sorted()
        key = entry.key
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key, lo)
        oid = entry.triple.oid
        entries = self._entries
        for index in range(lo, hi):
            candidate = entries[index]
            if candidate.triple.oid != oid or candidate != entry:
                continue
            self._mutated()
            del self._keys[index]
            del entries[index]
            if self._postings is not None:
                # A posting list mirrors its key's run of the sorted store.
                posting = self._postings[key]
                del posting[index - lo]
                if not posting:
                    del self._postings[key]
            self._kind_views = None
            if self._payload_total is not None:
                self._payload_total -= entry.payload_size()
            return True
        return False

    # -- reads ---------------------------------------------------------------

    def lookup(self, key: str) -> list[IndexEntry]:
        """All entries stored under exactly ``key`` (postings-map probe)."""
        if self._postings is None:
            self._build_postings()
        return list(self._postings.get(key, ()))

    def lookup_scan(self, key: str) -> list[IndexEntry]:
        """Index-free :meth:`lookup` via double bisect on the sorted lists.

        The pre-secondary-index implementation, kept as the reference the
        postings map is property-tested against (and as the baseline of
        the gram-lookup micro-benchmark).
        """
        self._ensure_sorted()
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._entries[lo:hi]

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

    def entries_of_kind_scan(self, kind: EntryKind) -> Iterator[IndexEntry]:
        """Index-free :meth:`entries_of_kind` (full filtered scan)."""
        self._ensure_sorted()
        return (entry for entry in self._entries if entry.kind == kind)

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
