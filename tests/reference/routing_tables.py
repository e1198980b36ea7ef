"""Reference: overlay construction and partition lookups by plain scans.

What :class:`repro.overlay.network.PGridNetwork` computes with bisected
spans of its sorted path list is computed here by walking the list:

* the partitions under a prefix — a ``startswith`` scan;
* the partitions meeting a key interval — every partition tested with
  :func:`repro.overlay.keys.interval_overlaps_prefix`;
* the routing tables — for every peer and level, the complementary
  subtrie materialized as a candidate list and the references drawn from
  it, which is the O(N·P) construction the network started with.  The
  production construction consumes its RNG draw for draw like this one,
  so the tables must come out identical.

:func:`scratch_network` puts them together: the network a dataset yields
with nothing shared and nothing remembered between builds, the ground
truth for :class:`repro.overlay.incremental.IncrementalNetworkBuilder`.
"""

from __future__ import annotations

import bisect
import random

from repro.core.errors import OverlayError
from repro.overlay import keys as keyspace
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
        if keyspace.interval_overlaps_prefix(lo_int, hi_int, partition.path, bits)
    ]


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
            peer.set_references(level, refs)


def scratch_network(prepared: PreparedDataset, n_peers: int) -> PGridNetwork:
    """From-scratch build: no shared trie counts, scan-built routing tables."""
    network = PGridNetwork(
        n_peers, prepared.config, sample_keys=prepared.sample_keys
    )
    build_routing_tables_scan(network)
    network.place_entries(prepared.entries)
    return network
