"""Reference: a gram peer's candidate scan, one posting at a time.

Algorithm 2, line 8 as printed: every posting stored under the looked-up
key is tested for the gram text (and, at instance level, the attribute)
it belongs to, then against every occurrence of that gram in the query
with :meth:`repro.similarity.filters.FilterConfig.admits`.  Nothing is
retained between calls.  This is what ``_gram_candidates``' memo-less
branch and ``similar_collected`` do inline, and the ground truth the
positional table of :class:`repro.query.operators.similar.GramScanMemo`
is property-tested against.
"""

from __future__ import annotations

from repro.storage.indexing import EntryKind
from repro.storage.qgrams import PositionalQGram


def candidate_oids_per_entry(
    store,
    key: str,
    occurrences: list[PositionalQGram],
    attribute: str,
    schema_level: bool,
    d: int,
    filters,
) -> set[str]:
    """Oids of the postings under ``key`` some occurrence admits at ``d``."""
    gram = occurrences[0].gram
    admitted: set[str] = set()
    for entry in store.lookup(key):
        if schema_level:
            if entry.kind is not EntryKind.SCHEMA_GRAM:
                continue
        elif (
            entry.kind is not EntryKind.INSTANCE_GRAM
            or entry.triple.attribute != attribute
        ):
            continue
        if entry.gram != gram:
            continue
        stored = PositionalQGram(entry.gram, entry.position, entry.source_length)
        if any(filters.admits(occurrence, stored, d) for occurrence in occurrences):
            admitted.add(entry.triple.oid)
    return admitted
