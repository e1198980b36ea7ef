"""Reference: replica audit and anti-entropy repair by signature alone.

Every entry of every replica is reduced to its signature — sorted for the
audit, collected into a union and a presence set for the repair — with no
shortcut for replicas that hold the very same entry objects and every
signature computed wherever it is needed.  ``audit_replicas`` and
``repair_partition`` in :mod:`repro.overlay.replication` are
property-tested against it.
"""

from __future__ import annotations

from repro.overlay.messages import MessageType


def signature(entry) -> tuple:
    """What identifies one stored entry across replicas: key, kind, the
    triple (its value as a string) and the gram with its position."""
    triple = entry.triple
    return (
        entry.key,
        entry.kind.value,
        triple.oid,
        triple.attribute,
        str(triple.value),
        entry.gram or "",
        entry.position,
    )


def audit_divergent(network) -> list[int]:
    """Indices of the partitions whose replicas hold different signature
    multisets, in partition order."""
    divergent: list[int] = []
    for partition in network.partitions:
        stores = [network.peer(pid).store for pid in partition.peer_ids]
        reference = sorted(signature(e) for e in stores[0])
        for store in stores[1:]:
            if sorted(signature(e) for e in store) != reference:
                divergent.append(partition.index)
                break
    return divergent


def repair_partition(
    network, partition_index: int, charge_messages: bool = False
) -> int:
    """Copy every signature some replica holds onto each replica lacking
    it; returns the number of entries copied."""
    partition = network.partition(partition_index)
    union: dict[tuple, object] = {}
    for peer_id in partition.peer_ids:
        for entry in network.peer(peer_id).store:
            union[signature(entry)] = entry
    copied = 0
    for peer_id in partition.peer_ids:
        store = network.peer(peer_id).store
        present = {signature(e) for e in store}
        missing = [entry for sig, entry in union.items() if sig not in present]
        if missing:
            store.add_bulk(missing)
            copied += len(missing)
            if charge_messages:
                network.tracer.send(
                    MessageType.FORWARD,
                    partition.peer_ids[0],
                    peer_id,
                    sum(entry.payload_size() for entry in missing),
                    phase="repair",
                )
    return copied
