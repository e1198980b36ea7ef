"""Reference: replica audit and anti-entropy repair by signature alone.

Every entry of every replica is reduced to its signature — sorted for the
audit, numbered per copy into a union and a presence set for the
repair — with no shortcut for replicas at one version token and every
signature computed wherever it is needed.  ``audit_replicas`` and
``repair_partition`` in :mod:`repro.overlay.replication` are
property-tested against it.
"""

from __future__ import annotations

from collections import Counter

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
    """Copy onto each replica the copies of every signature it holds
    fewer of than some replica does, each copy taken from the last
    replica holding that many; returns the number of entries copied.
    A rewritten replica then takes the version token of the first
    replica listing the same entry objects in the same order: one that
    needed nothing, else a later rewritten one."""
    partition = network.partition(partition_index)
    stores = [network.peer(peer_id).store for peer_id in partition.peer_ids]

    def numbered(store) -> list[tuple]:
        """``((signature, k), entry)`` for the k-th copy of each signature."""
        seen: Counter = Counter()
        pairs = []
        for entry in store:
            sig = signature(entry)
            pairs.append(((sig, seen[sig]), entry))
            seen[sig] += 1
        return pairs

    union: dict[tuple, object] = {}
    for store in stores:
        union.update(numbered(store))
    copied = 0
    kept, rewritten = [], []
    for peer_id, store in zip(partition.peer_ids, stores):
        present = {key for key, __ in numbered(store)}
        missing = [entry for key, entry in union.items() if key not in present]
        if not missing:
            kept.append(store)
        else:
            store.add_bulk(missing)
            rewritten.append(store)
            copied += len(missing)
            if charge_messages:
                network.tracer.send(
                    MessageType.FORWARD,
                    partition.peer_ids[0],
                    peer_id,
                    sum(entry.payload_size() for entry in missing),
                    phase="repair",
                )
    for store in reversed(rewritten):
        objects = [id(entry) for entry in store]
        for other in kept:
            if [id(entry) for entry in other] == objects:
                assert store.adopt(other)
                break
        kept.append(store)
    return copied
