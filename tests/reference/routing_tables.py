"""Reference: overlay construction and partition lookups by plain scans.

What :class:`repro.overlay.network.PGridNetwork` computes with bisected
spans of its sorted path list is computed here by walking the list:

* the partitions under a prefix — a ``startswith`` scan;
* the partitions meeting a key interval — every partition tested with
  :func:`interval_overlaps_prefix`;
* the keys each partition holds — :func:`partition_loads`, one oracle
  lookup per key;
* the routing tables — for every peer and level, the complementary
  subtrie materialized as a candidate list and the references drawn from
  it, which is the O(N·P) construction the network started with.  The
  production construction consumes its RNG draw for draw like this one
  (it inlines ``randrange``; this twin calls it), so the tables and the
  RNG state after them must come out identical.

:func:`scratch_network` puts them together: the network a dataset yields
with nothing shared and nothing remembered between builds, the ground
truth for :meth:`repro.overlay.incremental.PreparedDataset.build_network`;
:func:`assert_networks_equivalent` compares two networks.
"""

from __future__ import annotations

import bisect
import random

from repro.core.errors import OverlayError
from repro.overlay import keys as keyspace
from repro.overlay import trie
from repro.overlay.incremental import PreparedDataset
from repro.overlay.network import PGridNetwork
from repro.overlay.routing import Partition


def partition_range_scan(network: PGridNetwork, prefix: str) -> list[Partition]:
    """Partitions covered by ``prefix``: linear scan from the bisection point."""
    paths = network._paths
    lo = bisect.bisect_left(paths, prefix)
    result: list[Partition] = []
    index = lo
    while index < len(paths) and paths[index].startswith(prefix):
        result.append(network.partitions[index])
        index += 1
    if not result and lo > 0 and prefix.startswith(paths[lo - 1]):
        # The prefix is *inside* a single coarser partition.
        result.append(network.partitions[lo - 1])
    return result


def partitions_in_range_scan(
    network: PGridNetwork, lo_int: int, hi_int: int
) -> list[Partition]:
    """Partitions intersecting ``[lo_int, hi_int]``: every partition tested."""
    bits = network.config.key_bits
    return [
        partition
        for partition in network.partitions
        if interval_overlaps_prefix(lo_int, hi_int, partition.path, bits)
    ]


def interval_overlaps_prefix(lo: int, hi: int, prefix: str, key_bits: int) -> bool:
    """True when the integer interval ``[lo, hi]`` meets ``prefix``'s keys."""
    p_lo, p_hi = keyspace.prefix_interval(prefix, key_bits)
    return lo <= p_hi and p_lo <= hi


def partition_loads(paths: list[str], keys: list[str]) -> list[int]:
    """Keys per partition, aligned with ``sorted(paths)``."""
    ordered = sorted(paths)
    loads = [0] * len(ordered)
    for key in keys:
        loads[trie.find_responsible(ordered, key)] += 1
    return loads


def build_routing_tables_scan(network: PGridNetwork) -> None:
    """Rebuild ``network``'s routing tables from materialized candidate
    lists, drawing from a fresh RNG seeded like the constructor's."""
    network.rng = rng = random.Random(network.config.seed)
    refs_per_level = network.config.refs_per_level
    for peer in network.peers:
        for level in range(len(peer.path)):
            sibling = keyspace.sibling_prefix(peer.path, level)
            candidates = partition_range_scan(network, sibling)
            if not candidates:
                raise OverlayError(
                    f"complementary subtrie {sibling!r} is empty — "
                    "the trie cover is broken"
                )
            refs: list[int] = []
            for __ in range(min(refs_per_level, len(candidates))):
                partition = candidates[rng.randrange(len(candidates))]
                replica = partition.peer_ids[rng.randrange(len(partition.peer_ids))]
                refs.append(replica)
            peer.routing_table[level] = tuple(refs)


def scratch_network(prepared: PreparedDataset, n_peers: int) -> PGridNetwork:
    """From-scratch build: scan-built routing tables."""
    network = PGridNetwork(
        n_peers, prepared.config, sample_keys=prepared.sample_keys
    )
    build_routing_tables_scan(network)
    network.place_entries(prepared.entries)
    return network


def assert_networks_equivalent(a: PGridNetwork, b: PGridNetwork) -> None:
    """Assert two networks are structurally identical.

    Compares the trie cover, every partition's replica set, every peer's
    path, replicas and full routing table, and every peer store's entry
    keys.  Raises :class:`OverlayError` naming the first divergence.
    """
    if a._paths != b._paths:
        raise OverlayError(
            f"trie covers differ: {len(a._paths)} vs {len(b._paths)} "
            "partitions or different split boundaries"
        )
    if a.n_peers != b.n_peers:
        raise OverlayError(f"peer counts differ: {a.n_peers} vs {b.n_peers}")
    for pa, pb in zip(a.partitions, b.partitions):
        if pa.path != pb.path or pa.peer_ids != pb.peer_ids:
            raise OverlayError(
                f"partition {pa.index} differs: "
                f"{pa.path!r}/{pa.peer_ids} vs {pb.path!r}/{pb.peer_ids}"
            )
    for peer_a, peer_b in zip(a.peers, b.peers):
        if peer_a.path != peer_b.path:
            raise OverlayError(
                f"peer {peer_a.peer_id} paths differ: "
                f"{peer_a.path!r} vs {peer_b.path!r}"
            )
        if peer_a.replicas != peer_b.replicas:
            raise OverlayError(
                f"peer {peer_a.peer_id} replica sets differ"
            )
        if peer_a.routing_table != peer_b.routing_table:
            raise OverlayError(
                f"peer {peer_a.peer_id} routing tables differ: "
                f"{peer_a.routing_table} vs {peer_b.routing_table}"
            )
        keys_a = [entry.key for entry in peer_a.store]
        keys_b = [entry.key for entry in peer_b.store]
        if keys_a != keys_b:
            raise OverlayError(
                f"peer {peer_a.peer_id} stores differ: "
                f"{len(keys_a)} vs {len(keys_b)} entries"
            )
