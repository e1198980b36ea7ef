"""Reference: the naive region comparison, one stored entry at a time.

This is the comparison as it ran before region columns existed — every
contacted peer's ``ATTR_VALUE`` slice walked per query, each entry asked
for its comparable string, one banded-DP pass over what was collected,
the outcome assembled from a ``string -> distance`` dict.  Nothing is
retained between calls and the bit-parallel kernels are never involved,
which is what makes it the ground truth the columnar
:func:`repro.query.operators.naive._compare_region` is property-tested
against.
"""

from __future__ import annotations

from repro.query.operators.naive import RegionComparison
from repro.similarity.verify import BatchVerifier
from repro.storage.indexing import EntryKind
from tests.reference.kernel import ReferenceKernel


def comparable_string(entry, attribute: str, schema_level: bool) -> str | None:
    """The string a naive region peer compares for one stored entry.

    Instance level compares each attribute value exactly once, via the
    ``ATTR_VALUE`` entry.  Schema level compares attribute names, also via
    ``ATTR_VALUE`` entries (every triple has one).
    """
    if entry.kind is not EntryKind.ATTR_VALUE:
        return None
    if schema_level:
        return entry.triple.attribute
    if entry.triple.attribute != attribute:
        return None
    value = entry.triple.value
    return value if isinstance(value, str) else None


def compare_region_per_entry(
    contacted: list,
    s: str,
    attribute: str,
    band: int,
    schema_level: bool,
    region_prefix: str,
) -> RegionComparison:
    """Compare ``s`` against every contacted peer's local strings."""
    compared_by_partition: list[tuple[int, list[tuple[str, str]]]] = []
    store_versions: dict[int, int] = {}
    local_comparisons = 0
    max_peer_comparisons = 0
    for peer, partition_index in contacted:
        local_entries = (
            peer.store.entries_of_kind(EntryKind.ATTR_VALUE)
            if schema_level
            else peer.store.entries_of_kind_prefix(
                EntryKind.ATTR_VALUE, region_prefix
            )
        )
        compared = []
        for entry in local_entries:
            candidate = comparable_string(entry, attribute, schema_level)
            if candidate is not None:
                compared.append((entry.triple.oid, candidate))
        store_versions[partition_index] = peer.store.version
        local_comparisons += len(compared)
        max_peer_comparisons = max(max_peer_comparisons, len(compared))
        compared_by_partition.append((partition_index, compared))
    distances = BatchVerifier(s, band, kernel=ReferenceKernel()).distances(
        candidate
        for __, compared in compared_by_partition
        for __oid, candidate in compared
    )
    by_partition: dict[int, tuple[tuple[str, str, int], ...]] = {}
    for partition_index, compared in compared_by_partition:
        matched_here = tuple(
            (oid, candidate, distances[candidate])
            for oid, candidate in compared
            if distances[candidate] <= band
        )
        if matched_here:
            by_partition[partition_index] = matched_here
    return RegionComparison(
        band=band,
        by_partition=by_partition,
        local_comparisons=local_comparisons,
        max_peer_comparisons=max_peer_comparisons,
        store_versions=store_versions,
    )
