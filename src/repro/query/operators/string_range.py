"""String range selection.

P-Grid's order-preserving hashing supports "exact and substring search
... and range queries on keys" (Section 2).  On the vertical scheme that
gives :func:`select_string_range` for free: lexicographic
``lo <= value <= hi`` over one attribute, answered by a shower range
query over the composite-key interval.  Matches are re-verified at the
serving peers (truncated hashes are over-inclusive, never lossy).
"""

from __future__ import annotations

from repro.core.errors import ExecutionError
from repro.overlay.range_query import range_query
from repro.query.operators.base import OperatorContext
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple


def select_string_range(
    ctx: OperatorContext,
    attribute: str,
    lo: str,
    hi: str,
    initiator_id: int | None = None,
    lo_strict: bool = False,
    hi_strict: bool = False,
) -> list[Triple]:
    """Triples with string values in the lexicographic range ``[lo, hi]``."""
    if lo > hi:
        raise ExecutionError(f"empty string range [{lo!r}, {hi!r}]")
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    lo_key, hi_key = ctx.codec.attr_string_range(attribute, lo, hi)
    outcome = range_query(
        ctx.router, lo_key, hi_key, initiator_id, phase="range",
        collect_results=True,
    )
    triples = []
    for entry in outcome.entries:
        if entry.kind is not EntryKind.ATTR_VALUE:
            continue
        if entry.triple.attribute != attribute:
            continue
        value = entry.triple.value
        if not isinstance(value, str):
            continue
        if value < lo or (lo_strict and value == lo):
            continue
        if value > hi or (hi_strict and value == hi):
            continue
        triples.append(entry.triple)
    return sorted(triples, key=lambda t: (str(t.value), t.oid))
