"""Exact-match operators — lookups and joins over the vertical scheme.

These are the "already implemented and evaluated" operations the paper
builds on ([10], Section 3): object lookup via ``key(oid)``, selection via
``key(A#v)``, keyword lookup via ``key(v)``, and attribute scans via the
attribute prefix.
"""

from __future__ import annotations

from repro.query.operators.base import MatchedObject, OperatorContext
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple, ValueType


def lookup_object(
    ctx: OperatorContext, oid: str, initiator_id: int | None = None
) -> tuple[Triple, ...]:
    """Fetch the complete object stored under ``key(oid)``."""
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    objects = ctx.fetch_objects(
        [oid], delegating_peer_id=initiator_id, initiator_id=initiator_id,
        phase="exact",
    )
    return objects.get(oid, ())


def select_equals(
    ctx: OperatorContext,
    attribute: str,
    value: ValueType,
    initiator_id: int | None = None,
    fetch_full_objects: bool = True,
) -> list[MatchedObject]:
    """Selection ``attribute = value`` via one routed ``key(A#v)`` lookup.

    Composite keys collide (the value hash is truncated, so long values
    sharing a prefix share a key), but the answering peer does not scan
    the collisions: it reads its rows of ``value`` from the store's value
    view and keeps those of ``attribute``.  Every such row is stored under
    ``key(A#v)``, and a key's whole run lives on the peer it routes to,
    so these are exactly the key's matching entries, in store order.
    """
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    key = ctx.codec.attr_value_key(attribute, value)
    peer = ctx.router.route(key, initiator_id, phase="exact")
    hits = [
        entry.triple
        for entry in peer.store.entries_with_value(EntryKind.ATTR_VALUE, value)
        if entry.triple.attribute == attribute
    ]
    if hits:
        payload = sum(t.payload_size() for t in hits)
        if not ctx.router.send_result(
            peer.peer_id, initiator_id, payload, phase="exact"
        ):
            ctx.router.record_dropped_candidates(len(hits))
            hits = []
    if not fetch_full_objects:
        return [
            MatchedObject(t.oid, str(t.value), 0.0, (t,)) for t in hits
        ]
    objects = ctx.fetch_objects(
        {t.oid for t in hits},
        delegating_peer_id=peer.peer_id,
        initiator_id=initiator_id,
        phase="exact",
    )
    return sorted(
        (
            MatchedObject(t.oid, str(t.value), 0.0, objects.get(t.oid, (t,)))
            for t in hits
        ),
        key=lambda m: m.oid,
    )


def keyword_lookup(
    ctx: OperatorContext, value: ValueType, initiator_id: int | None = None
) -> list[Triple]:
    """Keyword query "any attribute = value" via ``key(v)``.

    The answering peer reads its ``VALUE`` rows of ``value`` from the
    store's value view instead of scanning every value whose truncated
    hash collides with ``key(v)``.
    """
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    key = ctx.codec.value_key(value)
    peer = ctx.router.route(key, initiator_id, phase="exact")
    hits = [
        entry.triple
        for entry in peer.store.entries_with_value(EntryKind.VALUE, value)
    ]
    if hits:
        payload = sum(t.payload_size() for t in hits)
        if not ctx.router.send_result(
            peer.peer_id, initiator_id, payload, phase="exact"
        ):
            ctx.router.record_dropped_candidates(len(hits))
            hits = []
    return sorted(hits, key=lambda t: (t.oid, t.attribute))


def scan_attribute(
    ctx: OperatorContext, attribute: str, initiator_id: int | None = None
) -> list[Triple]:
    """All triples of one attribute: multicast over the attribute region.

    Charges one result message per contributing peer — this is the
    expensive full-scan fallback the planner avoids whenever it can.
    """
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    prefix = ctx.codec.attr_prefix(attribute)
    peers = ctx.router.multicast_prefix(prefix, initiator_id, phase="scan")
    triples: list[Triple] = []
    for peer in peers:
        local = [
            entry.triple
            for entry in peer.store.prefix_scan(prefix)
            if entry.kind is EntryKind.ATTR_VALUE
            and entry.triple.attribute == attribute
        ]
        if local:
            payload = sum(t.payload_size() for t in local)
            if not ctx.router.send_result(
                peer.peer_id, initiator_id, payload, phase="scan"
            ):
                ctx.router.record_dropped_candidates(len(local))
                continue
            triples.extend(local)
    return sorted(triples, key=lambda t: (t.oid, str(t.value)))
