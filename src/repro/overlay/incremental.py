"""Building networks from a dataset prepared once.

Loading a network is mostly key hashing: the vertical layout turns every
triple into an oid entry, an ``A#v`` entry and one entry per q-gram.
:class:`PreparedDataset` does that per-*dataset* work once — derive the
entries, sort them by key — and every network over the dataset, whether
the one :meth:`repro.engine.QueryEngine.build` wants or the cells of a
sweep, is then a trie balanced on those keys plus one merge walk placing
the sorted entries
(:meth:`~repro.overlay.network.PGridNetwork.place_entries`).

A Figure-1 sweep builds one network per peer count over the *same*
dataset; :class:`IncrementalNetworkBuilder` additionally carries the
per-*sweep* state from cell to cell:

* **Trie split counts.**  The data-aware trie allocates peers to the two
  halves of every split proportionally to the sample keys falling into
  each half.  Those per-prefix counts depend only on the (fixed) sample,
  not on the partition count, so the builder shares one count cache
  across all cells: cell ``i+1`` re-derives its trie from the splits
  cells ``1..i`` already measured, touching the sorted sample only for
  prefixes no earlier cell reached.  Cached or not, the counts are equal,
  so the derived paths are equal.

Because the routing references are sampled from a seeded RNG whose draw
sequence depends on every peer's path, a *structurally* grown network
(mutating the previous cell's peers in place) could not reproduce the
from-scratch tables bit-for-bit; the builder therefore grows the cheap
derived state (counts, entries) and keeps construction itself exactly
what a from-scratch build does.  ``tests/overlay/test_incremental.py``
holds every built network equal — trie, peers, replicas, routing tables,
stores — to the materializing reference construction in
``tests/reference/routing_tables.py``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.config import StoreConfig
from repro.core.errors import OverlayError
from repro.overlay.hashing import CompositeKeyCodec
from repro.overlay.network import PGridNetwork
from repro.storage.indexing import EntryFactory, IndexEntry
from repro.storage.triple import Triple


@dataclass
class PreparedDataset:
    """A dataset's index entries, derived once and placed per network.

    ``entries`` is sorted by key, ties in generation order — the order a
    store's deferred stable sort gives the same entries inserted triple by
    triple, so a placed network equals an
    :meth:`~repro.overlay.network.PGridNetwork.insert_triples`-loaded one
    entry for entry.  ``sample_keys`` (the entries' keys) is the
    data-aware trie sample.  ``codec`` derived the keys and is handed to
    every network built, which so starts with its memo warm.
    """

    config: StoreConfig
    entries: list[IndexEntry]
    sample_keys: list[str]
    codec: CompositeKeyCodec

    @classmethod
    def prepare(
        cls, triples: Sequence[Triple], config: StoreConfig
    ) -> "PreparedDataset":
        """Derive and key-sort all index entries for ``triples``."""
        codec = CompositeKeyCodec(config)
        entries = sorted(
            EntryFactory(config, codec).entries_for_all(triples),
            key=lambda entry: entry.key,
        )
        return cls(config, entries, [entry.key for entry in entries], codec)

    def build_network(self, n_peers: int) -> PGridNetwork:
        """A load-balanced network of ``n_peers`` holding this dataset."""
        return IncrementalNetworkBuilder(self).build(n_peers)


@dataclass
class BuildReport:
    """Timings and reuse statistics for one incremental build."""

    n_peers: int
    #: Wall-clock seconds for trie + peers + routing tables.
    construct_seconds: float
    #: Wall-clock seconds for placing the prepared entries.
    place_seconds: float
    #: Trie split counts already cached before this build started.
    trie_counts_reused: int
    #: Split counts the build added to the shared cache.
    trie_counts_added: int

    @property
    def build_seconds(self) -> float:
        """Total network-build seconds."""
        return self.construct_seconds + self.place_seconds


class IncrementalNetworkBuilder:
    """Build a dataset's networks for increasing peer counts, reusing state.

    One builder serves one :class:`PreparedDataset` — typically one sweep;
    it may be called with peer counts in any order, though sweeps use
    increasing ones.
    """

    def __init__(self, prepared: PreparedDataset):
        self.prepared = prepared
        self._trie_counts: dict[str, int] = {}
        #: One :class:`BuildReport` per :meth:`build` call, in call order.
        self.reports: list[BuildReport] = []

    def build(self, n_peers: int) -> PGridNetwork:
        """A load-balanced network of ``n_peers`` holding the dataset."""
        prepared = self.prepared
        reused = len(self._trie_counts)
        started = time.perf_counter()
        network = PGridNetwork(
            n_peers,
            prepared.config,
            sample_keys=prepared.sample_keys,
            trie_count_cache=self._trie_counts,
            codec=prepared.codec,
        )
        constructed = time.perf_counter()
        network.place_entries(prepared.entries)
        placed = time.perf_counter()
        self.reports.append(
            BuildReport(
                n_peers=n_peers,
                construct_seconds=constructed - started,
                place_seconds=placed - constructed,
                trie_counts_reused=reused,
                trie_counts_added=len(self._trie_counts) - reused,
            )
        )
        return network

    @property
    def last_report(self) -> BuildReport | None:
        return self.reports[-1] if self.reports else None


def assert_networks_equivalent(a: PGridNetwork, b: PGridNetwork) -> None:
    """Assert two networks are structurally identical.

    Compares the trie cover, every partition's replica set, every peer's
    path, replicas and full routing table, and every peer store's entry
    keys.  Raises :class:`OverlayError` naming the first divergence —
    the incremental sweep engine's safety net.
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
