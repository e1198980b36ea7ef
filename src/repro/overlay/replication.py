"""Replication analysis helpers.

Structural replication (``k`` peers per partition) is wired directly into
:class:`~repro.overlay.network.PGridNetwork`; this module provides the
surrounding machinery: consistency checks, availability math, and repair
after churn — the "robustness through redundancy" properties Section 2
attributes to P-Grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from repro.overlay.messages import MessageType
from repro.overlay.network import PGridNetwork


@dataclass
class ReplicationReport:
    """Outcome of a replica consistency audit."""

    partitions: int
    replication: int
    consistent: bool
    divergent_partitions: list[int]


def entry_signature(entry) -> tuple:
    """The identity of one stored index entry, shared by audit and repair.

    Includes ``position``: a string's repeated q-gram occurs once per
    position, and collapsing those entries (as a position-less signature
    would) both under-repairs and diverges from what the audit compares.
    """
    triple = entry.triple
    return (
        entry.key,
        entry.kind._value_,  # the plain attribute; ``.value`` is a descriptor
        triple.oid,
        triple.attribute,
        str(triple.value),
        entry.gram or "",
        entry.position,
    )


def audit_replicas(network: PGridNetwork) -> ReplicationReport:
    """Verify that all replicas of each partition store identical entries.

    Replicas are compared as multisets of :func:`entry_signature`.  A
    write hands every replica the same entry objects, so a replica whose
    store lists exactly the first replica's objects in the same order has
    the same multiset by construction and is passed without computing a
    signature; only the others pay the sorted comparison.
    """
    divergent: list[int] = []
    for partition in network.partitions:
        stores = [network.peer(pid).store for pid in partition.peer_ids]
        first = stores[0]
        reference = None
        for store in stores[1:]:
            if len(store) == len(first) and all(map(operator.is_, store, first)):
                continue
            if reference is None:
                reference = sorted(map(entry_signature, first))
            if sorted(map(entry_signature, store)) != reference:
                divergent.append(partition.index)
                break
    return ReplicationReport(
        partitions=network.n_partitions,
        replication=network.config.replication,
        consistent=not divergent,
        divergent_partitions=divergent,
    )


def repair_partition(
    network: PGridNetwork, partition_index: int, charge_messages: bool = False
) -> int:
    """Copy the union of replica contents back onto every replica.

    Models P-Grid's anti-entropy repair; returns the number of entries
    copied.  Only meaningful after failures have caused divergence (e.g.
    inserts while a replica was offline).  Union and per-replica diff
    both use :func:`entry_signature`, so repeated q-grams of one string
    at different positions repair independently and a follow-up
    :func:`audit_replicas` agrees with the result.

    ``charge_messages`` prices the anti-entropy exchange on the
    network's tracer under the ``repair`` phase: one ``FORWARD`` per
    replica that received missing entries, carrying their payload bytes
    (the churn-recovery benchmark's repair-traffic series).
    """
    partition = network.partition(partition_index)
    stores = [network.peer(peer_id).store for peer_id in partition.peer_ids]
    # Each replica's signatures, computed once: they build the union and
    # answer that replica's presence test.
    held = [{entry_signature(e): e for e in store} for store in stores]
    union: dict[tuple, object] = {}
    for signatures in held:
        union.update(signatures)
    copied = 0
    for peer_id, store, present in zip(partition.peer_ids, stores, held):
        missing = [entry for sig, entry in union.items() if sig not in present]
        if missing:
            store.add_bulk(missing)  # type: ignore[arg-type]
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


def partition_availability(replication: int, peer_failure_prob: float) -> float:
    """Probability that at least one replica of a partition is online.

    Independent failures: ``1 - f^k``.  Quantifies the paper's claim that
    replication makes the ``Retrieve`` guarantee hold "if at least one peer
    in each partition is reachable".
    """
    if not 0.0 <= peer_failure_prob <= 1.0:
        raise ValueError(f"failure probability must be in [0,1], got {peer_failure_prob}")
    return 1.0 - peer_failure_prob**replication


def network_availability(
    n_partitions: int, replication: int, peer_failure_prob: float
) -> float:
    """Probability that *every* partition keeps at least one live replica."""
    return partition_availability(replication, peer_failure_prob) ** n_partitions


def replicas_needed(peer_failure_prob: float, target_availability: float) -> int:
    """Smallest k with ``partition_availability(k, f) >= target``."""
    if not 0.0 < target_availability < 1.0:
        raise ValueError("target availability must be in (0, 1)")
    if peer_failure_prob <= 0.0:
        return 1
    if peer_failure_prob >= 1.0:
        raise ValueError("availability target unreachable with certain failure")
    k = math.log(1.0 - target_availability) / math.log(peer_failure_prob)
    return max(1, math.ceil(k))
