"""Reference: the per-peer store with nothing kept between calls.

Entries live in one list in arrival order.  Every read sorts a copy by
key — a stable sort, so entries under one key stay in arrival order,
which is the order :class:`repro.storage.datastore.LocalDataStore`
promises — and filters it; every removal searches the list.  There is no
dirty flag, no postings map, no kind view, no value view and no cached
total to fall out of step, which is what makes it the ground truth the
production store's in-place maintenance is property-tested against.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.triple import ValueType


class ReferenceStore:
    """Arrival-ordered list; every answer recomputed from it."""

    def __init__(self) -> None:
        self._arrived: list[IndexEntry] = []

    def _sorted(self) -> list[IndexEntry]:
        return sorted(self._arrived, key=lambda entry: entry.key)

    def __len__(self) -> int:
        return len(self._arrived)

    def __iter__(self) -> Iterator[IndexEntry]:
        return iter(self._sorted())

    # -- writes --------------------------------------------------------------

    def add(self, entry: IndexEntry) -> None:
        self._arrived.append(entry)

    def add_bulk(self, entries: Iterable[IndexEntry]) -> int:
        before = len(self._arrived)
        self._arrived.extend(entries)
        return len(self._arrived) - before

    def remove(self, entry: IndexEntry) -> bool:
        # Equal entries are interchangeable, so which copy goes is moot.
        if entry not in self._arrived:
            return False
        self._arrived.remove(entry)
        return True

    def remove_bulk(self, entries: Iterable[IndexEntry]) -> list[bool]:
        return [self.remove(entry) for entry in entries]

    # -- reads ---------------------------------------------------------------

    def lookup(self, key: str) -> list[IndexEntry]:
        return [entry for entry in self._sorted() if entry.key == key]

    def prefix_scan(self, prefix: str) -> list[IndexEntry]:
        return [entry for entry in self._sorted() if entry.key.startswith(prefix)]

    def range_scan(self, lo_key: str, hi_key: str) -> list[IndexEntry]:
        return [entry for entry in self._sorted() if lo_key <= entry.key <= hi_key]

    def count_prefix(self, prefix: str) -> int:
        return len(self.prefix_scan(prefix))

    def entries_of_kind(self, kind: EntryKind) -> Iterator[IndexEntry]:
        return iter(self.entries_of_kind_prefix(kind, ""))

    def entries_of_kind_prefix(
        self, kind: EntryKind, prefix: str
    ) -> list[IndexEntry]:
        return [entry for entry in self.prefix_scan(prefix) if entry.kind is kind]

    def entries_with_value(
        self, kind: EntryKind, value: ValueType
    ) -> list[IndexEntry]:
        return [
            entry
            for entry in self._sorted()
            if entry.kind is kind and entry.triple.value == value
        ]

    def key_bounds(self) -> tuple[str, str] | None:
        keys = [entry.key for entry in self._arrived]
        return (min(keys), max(keys)) if keys else None

    def payload_bytes(self) -> int:
        return sum(entry.payload_size() for entry in self._arrived)
