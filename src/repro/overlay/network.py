"""The P-Grid network: peers, partitions, construction, and data placement.

:class:`PGridNetwork` is the simulator's root object.  Building one

1. carves the key space into partitions (uniform or data-aware trie),
2. creates ``replication`` peers per partition and wires their replica
   references,
3. fills every peer's routing table with ``refs_per_level`` random
   references into the complementary subtrie at each level (the
   small-world construction of Section 2),
4. and bulk-places index entries onto the peers responsible for them.

The network owns the :class:`MessageTracer` so every router/operator built
on top of it shares one cost ledger.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from repro.core.config import StoreConfig, TrieBalancing
from repro.core.errors import OverlayError
from repro.overlay import keys as keyspace
from repro.overlay import trie
from repro.overlay.faults import FaultInjector, FaultMode, FaultPlan, RetryPolicy
from repro.overlay.hashing import CompositeKeyCodec
from repro.overlay.messages import MessageTracer, MessageType
from repro.overlay.peer import NetworkLedger, Peer
from repro.overlay.routing import Partition, Router
from repro.storage.indexing import EntryFactory, IndexEntry
from repro.storage.triple import Triple


class PartitionWrite(NamedTuple):
    """What one :meth:`PGridNetwork.apply_entries` call did to one partition
    — what the engine's memos need to drop exactly what was written."""

    #: The entries applied: every one given for the partition on an
    #: insert; on a removal those some contacted replica actually held.
    entries: Sequence[IndexEntry]
    #: ``entries`` were removed, not added.
    removed: bool
    #: Store version ``before -> after`` over *every* replica of the
    #: partition; equal for a replica the write did not change (offline
    #: under ``respect_online``, or holding nothing that was removed).
    #: Where replicas at one version part ways, the version maps to where
    #: the written ones went.
    versions: Mapping[int, int]
    #: Every replica whose version moved applied exactly ``entries`` —
    #: always true of an insert; false when diverged replicas removed
    #: different subsets, so no one entry list describes them all.
    uniform: bool


class PGridNetwork:
    """A complete simulated P-Grid overlay."""

    def __init__(
        self,
        n_peers: int,
        config: StoreConfig | None = None,
        sample_keys: Sequence[str] | None = None,
        tracer: MessageTracer | None = None,
        trie_count_cache: dict[str, int] | None = None,
        codec: CompositeKeyCodec | None = None,
    ):
        """Build a network of ``n_peers``.

        ``sample_keys`` feeds the data-aware trie builder; pass the keys of
        the data you are about to insert (or a sample of them) to get
        P-Grid-style load balancing.  Omitting it — or selecting
        ``TrieBalancing.UNIFORM`` — produces an evenly split trie.

        ``trie_count_cache`` memoizes the data-aware builder's per-prefix
        sample counts across networks built over the *same*
        ``sample_keys`` (see :func:`repro.overlay.trie.data_aware_paths`);
        sweeps pass one shared cache so each cell's trie derivation reuses
        the previous cells' splits.

        ``codec`` is the key codec to keep — the one ``sample_keys`` were
        derived with, so what it remembers (see
        :class:`~repro.overlay.hashing.CompositeKeyCodec`) serves this
        network's writes and queries too; it must be a codec of ``config``.
        """
        if n_peers < 1:
            raise OverlayError(f"need at least one peer, got {n_peers}")
        self.config = config if config is not None else StoreConfig()
        self.tracer = tracer if tracer is not None else MessageTracer()
        self.codec = codec if codec is not None else CompositeKeyCodec(self.config)
        self.entry_factory = EntryFactory(self.config, self.codec)
        self.rng = random.Random(self.config.seed)

        k = self.config.replication
        n_partitions = max(1, n_peers // k)
        if self.config.balancing is TrieBalancing.DATA_AWARE and sample_keys:
            paths = trie.data_aware_paths(
                n_partitions,
                sample_keys,
                self.config.key_bits,
                count_cache=trie_count_cache,
            )
        else:
            paths = trie.uniform_paths(n_partitions)
        paths.sort()
        trie.validate_cover(paths)
        self._paths = paths
        self.max_depth = max(len(p) for p in paths)
        if self.max_depth > self.config.key_bits:
            raise OverlayError(
                f"trie depth {self.max_depth} exceeds key width "
                f"{self.config.key_bits}; increase key_bits"
            )

        #: Shared with every peer and store: the offline-peer count and
        #: the mutation tick behind :meth:`store_version_token`.
        self.ledger = NetworkLedger()
        self.peers: list[Peer] = []
        self.partitions: list[Partition] = []
        for index, path in enumerate(paths):
            peer_ids = []
            for __ in range(k):
                peer = Peer(len(self.peers), path, index, self.ledger)
                self.peers.append(peer)
                peer_ids.append(peer.peer_id)
            self.partitions.append(Partition(index, path, peer_ids))
            for peer_id in peer_ids:
                self.peers[peer_id].replicas = [
                    other for other in peer_ids if other != peer_id
                ]
        self._build_routing_tables()
        #: Transport fault injection (None, or an injector whose no-op
        #: plan keeps it inactive, leaves the delivery path untouched).
        self.fault_injector: FaultInjector | None = None
        #: How unrecoverable delivery failures surface: STRICT raises,
        #: DEGRADED skips dark partitions and records partial coverage.
        self.fault_mode: FaultMode = FaultMode.STRICT
        self.router = Router(self, random.Random(self.config.seed + 1))

    # -- construction ---------------------------------------------------------

    def _build_routing_tables(self) -> None:
        """Wire ``refs_per_level`` random references per peer and level.

        Candidate partitions under a sibling prefix form a contiguous run
        of the sorted path list, so each reference is drawn directly from
        the bisected index span — O(log P) per level instead of
        materializing the whole complementary subtrie.  The spans are a
        property of the partition's path, so they are computed once per
        partition (its replicas share them) and once per sibling prefix
        (the siblings of all paths are the ~2P nodes of the trie, not
        P · depth of them).  The draws themselves cannot be shared: peer
        by peer, level by level, reference by reference, the RNG is
        consumed exactly as by the materializing reference in
        ``tests/reference/routing_tables.py``, so the tables — and with
        them every measured message series — are bit-identical to it.
        """
        refs_per_level = self.config.refs_per_level
        randrange = self.rng.randrange
        partitions = self.partitions
        peers = self.peers
        spans: dict[str, tuple[int, int]] = {}
        for partition in partitions:
            path = partition.path
            levels = []
            for level, bit in enumerate(path):
                # keyspace.sibling_prefix(path, level), without the call.
                sibling = path[:level] + ("1" if bit == "0" else "0")
                span = spans.get(sibling)
                if span is None:
                    span = spans[sibling] = self.partition_span(sibling)
                lo, hi = span
                if hi <= lo:
                    raise OverlayError(
                        f"complementary subtrie {sibling!r} is empty — "
                        "the trie cover is broken"
                    )
                levels.append((lo, hi - lo, min(refs_per_level, hi - lo)))
            for peer_id in partition.peer_ids:
                table = []
                for lo, count, n_refs in levels:
                    refs: list[int] = []
                    for __ in range(n_refs):
                        peer_ids = partitions[lo + randrange(count)].peer_ids
                        refs.append(peer_ids[randrange(len(peer_ids))])
                    table.append(refs)
                peers[peer_id].routing_table = table

    # -- transport faults --------------------------------------------------------

    def install_faults(
        self, plan: FaultPlan, policy: RetryPolicy | None = None
    ) -> FaultInjector:
        """Install a fault injector for ``plan`` on the delivery path.

        A no-op plan installs an *inactive* injector: the router bypasses
        it entirely and the measured series stay bit-identical (pinned by
        property tests).  Returns the injector for session inspection.
        """
        self.fault_injector = FaultInjector(plan, policy)
        return self.fault_injector

    def clear_faults(self) -> None:
        """Remove any installed fault injector (healthy transport)."""
        self.fault_injector = None

    # -- oracle lookups (no message cost; used for placement & simulation) -----

    def peer(self, peer_id: int) -> Peer:
        return self.peers[peer_id]

    def partition(self, index: int) -> Partition:
        return self.partitions[index]

    @property
    def n_peers(self) -> int:
        return len(self.peers)

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def partition_for(self, key: str) -> Partition:
        """The partition responsible for ``key`` (oracle bisection)."""
        index = trie.find_responsible(self._paths, key)
        return self.partitions[index]

    def partitions_under(self, prefix: str) -> list[Partition]:
        """All partitions whose path extends (or equals/prefixes) ``prefix``."""
        return self._partition_range(prefix)

    def partitions_in_range(self, lo_int: int, hi_int: int) -> list[Partition]:
        """Partitions intersecting an integer key interval, in key order.

        The sorted paths tile the key space, so these are the run from
        the partition holding ``lo_int`` to the one holding ``hi_int``.
        """
        bits = self.config.key_bits
        top = (1 << bits) - 1
        if lo_int > top or hi_int < 0:
            return []
        paths = self._paths
        lo_key = keyspace.int_to_key(max(lo_int, 0), bits)
        hi_key = keyspace.int_to_key(min(hi_int, top), bits)
        first = bisect.bisect_right(paths, lo_key) - 1
        return self.partitions[first : bisect.bisect_right(paths, hi_key)]

    def partition_span(self, prefix: str) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of the partitions covered by ``prefix``.

        Paths are sorted and prefix-free, so every path extending
        ``prefix`` sits in one contiguous run bounded by ``prefix`` and
        its binary successor.  An empty run whose left neighbour *covers*
        the prefix (the prefix is inside a single coarser partition)
        yields that neighbour as a one-element span.
        """
        paths = self._paths
        lo = bisect.bisect_left(paths, prefix)
        # Binary successor: strip trailing '1's, flip the final '0'.
        stripped = prefix.rstrip("1")
        if stripped:
            hi = bisect.bisect_left(paths, stripped[:-1] + "1")
        else:
            hi = len(paths)
        if lo == hi and lo > 0 and prefix.startswith(paths[lo - 1]):
            return lo - 1, lo
        return lo, hi

    def _partition_range(self, prefix: str) -> list[Partition]:
        """Partitions covered by ``prefix`` (contiguous span of the cover)."""
        lo, hi = self.partition_span(prefix)
        return self.partitions[lo:hi]

    # -- data placement ----------------------------------------------------------

    def insert_triples(
        self, triples: Iterable[Triple], respect_online: bool = False
    ) -> int:
        """Index and place triples; returns the number of entries stored.

        Placement is done with the oracle (no routed insert messages): the
        paper's evaluation measures *query* cost, with publishing treated
        as an offline bulk load.  :meth:`estimate_insert_messages` prices
        the online publishing cost analytically.

        ``respect_online`` skips offline replicas — the churn setting,
        where an insert while a replica is down leaves that replica
        divergent until :func:`~repro.overlay.replication.repair_partition`
        runs anti-entropy.  The default writes every replica (bulk-load
        semantics, unchanged).
        """
        entries = list(self.entry_factory.entries_for_all(triples))
        self.apply_entries(entries, respect_online)
        return len(entries)

    def place_entries(self, entries: Sequence[IndexEntry]) -> int:
        """Bulk-place pre-built index entries sorted by key.

        The incremental-sweep fast path: entry derivation (q-gram
        decomposition, key hashing) happens once per dataset via
        :class:`EntryFactory`; each network re-places the same entry list
        with a single merge walk over its sorted trie paths — O(E + P)
        partition assignment instead of O(E log P) per-entry bisection,
        and no re-tokenization.  ``entries`` must be sorted by ``key``
        (ties in any order); placement is oracle-based exactly like
        :meth:`insert_triples`.  Returns the number of entries placed.
        """
        paths = self._paths
        n_partitions = len(paths)
        index = 0
        buffer: list[IndexEntry] = []
        count = 0

        def flush(partition_index: int) -> None:
            if not buffer:
                return
            for peer_id in self.partitions[partition_index].peer_ids:
                self.peers[peer_id].store.add_bulk(buffer)
            buffer.clear()

        for entry in entries:
            key = entry.key
            if not key.startswith(paths[index]) or (
                index + 1 < n_partitions and paths[index + 1] <= key
            ):
                advanced = index
                while advanced + 1 < n_partitions and paths[advanced + 1] <= key:
                    advanced += 1
                if not key.startswith(paths[advanced]):
                    # Out-of-order or prefix key: fall back to the oracle.
                    advanced = trie.find_responsible(paths, key)
                if advanced != index:
                    flush(index)
                    index = advanced
            buffer.append(entry)
            count += 1
        flush(index)
        return count

    def apply_entries(
        self,
        entries: Sequence[IndexEntry],
        respect_online: bool = False,
        remove: bool = False,
    ) -> tuple[int, dict[int, PartitionWrite]]:
        """Add (or remove) pre-built entries; report what was written where.

        The write primitive of the engine's explicit mutation path:
        entries are grouped by responsible partition and applied to every
        (optionally only online) replica, each contacted replica's store
        seeing one bulk call with its partition's entries.
        ``remove=True`` deletes instead of adding; a removal only counts
        when at least one contacted replica actually stored the entry
        (deleting absent data is a no-op that touches nothing).  Returns
        ``(applied, {partition index: PartitionWrite})`` — per touched
        partition the entries that counted and where every replica's
        store version went, so the caller can invalidate exactly what
        those entries name and keep the rest of the partition.
        """
        per_partition: dict[int, list[IndexEntry]] = {}
        for entry in entries:
            index = trie.find_responsible(self._paths, entry.key)
            per_partition.setdefault(index, []).append(entry)
        applied = 0
        writes: dict[int, PartitionWrite] = {}
        peers = self.peers
        for index, partition_entries in per_partition.items():
            versions: dict[int, int] = {}
            flags: list[list[bool]] = []
            contacted = False
            for peer_id in self.partitions[index].peer_ids:
                peer = peers[peer_id]
                store = peer.store
                before = store.version
                if peer.online or not respect_online:
                    contacted = True
                    if remove:
                        flags.append(store.remove_bulk(partition_entries))
                    else:
                        store.add_bulk(partition_entries)
                after = store.version
                if after != before or before not in versions:
                    versions[before] = after
            if not contacted:
                continue
            written, uniform = partition_entries, True
            if remove:
                removed = flags[0]
                for held in flags[1:]:
                    if held != removed:
                        uniform = False
                        removed = [was or now for was, now in zip(removed, held)]
                if not uniform:
                    uniform = all(held == removed for held in flags if True in held)
                if False in removed:
                    written = [
                        entry
                        for entry, gone in zip(partition_entries, removed)
                        if gone
                    ]
            if written:
                applied += len(written)
                writes[index] = PartitionWrite(written, remove, versions, uniform)
        return applied, writes

    def insert_entry(self, entry: IndexEntry, respect_online: bool = False) -> None:
        """Place one pre-built index entry (incremental insertion)."""
        partition = self.partition_for(entry.key)
        for peer_id in partition.peer_ids:
            peer = self.peers[peer_id]
            if respect_online and not peer.online:
                continue
            peer.store.add(entry)

    def publish_triple(self, triple: Triple, publisher_id: int) -> int:
        """Online, routed publication of one triple's index entries.

        Models what inserting data over the live overlay costs — the
        overhead the paper's conclusion weighs ("the overhead of
        additional overlay messages ... is linear in the number of
        attribute columns"): the publisher batches the triple's entry
        keys, contacts each responsible partition once (routed walk +
        shower forwards), ships the entry payloads, and each partition
        fans out to its replicas.  Returns the number of messages spent;
        entries are actually stored, so the data is queryable afterwards.
        """
        entries = list(self.entry_factory.entries_for(triple))
        before = self.tracer.message_count
        answers = self.router.route_many(
            (entry.key for entry in entries), publisher_id, phase="publish"
        )
        by_partition: dict[int, list[IndexEntry]] = {}
        for entry in entries:
            peer = answers[entry.key]
            by_partition.setdefault(peer.partition_index, []).append(entry)
        for index, partition_entries in by_partition.items():
            partition = self.partitions[index]
            payload = sum(e.payload_size() for e in partition_entries)
            receiver = partition.peer_ids[0]
            self.tracer.send(
                MessageType.RESULT, publisher_id, receiver, payload, phase="publish"
            )
            for peer_id in partition.peer_ids:
                self.peers[peer_id].store.add_bulk(partition_entries)
                if peer_id != receiver:
                    self.tracer.send(
                        MessageType.FORWARD, receiver, peer_id, payload,
                        phase="publish",
                    )
        return self.tracer.message_count - before

    def publish_triples(self, triples: Iterable[Triple], publisher_id: int) -> int:
        """Routed publication of many triples; returns total messages."""
        return sum(self.publish_triple(t, publisher_id) for t in triples)

    def estimate_insert_messages(self, triples: Iterable[Triple]) -> int:
        """Messages an online, routed publish of ``triples`` would cost.

        Each index entry requires one routed walk of expected
        ``0.5 * log2(n_partitions)`` hops (Section 2), times the
        replication factor for the final delivery.
        """
        import math

        entries = sum(1 for __ in self.entry_factory.entries_for_all(triples))
        expected_hops = 0.5 * math.log2(max(2, self.n_partitions))
        return int(entries * (expected_hops + (self.config.replication - 1)))

    # -- diagnostics ------------------------------------------------------------

    def load_distribution(self) -> list[int]:
        """Entries stored per peer (load-balance diagnostic)."""
        return [len(peer.store) for peer in self.peers]

    def random_peer_id(self, rng: random.Random | None = None) -> int:
        """Uniformly random online peer id (query initiators)."""
        chooser = rng if rng is not None else self.rng
        for __ in range(self.n_peers * 2):
            candidate = chooser.randrange(self.n_peers)
            if self.peers[candidate].online:
                return candidate
        raise OverlayError("could not find an online peer")

    def total_entries(self) -> int:
        """Total index entries across all peers (replicas counted)."""
        return sum(len(peer.store) for peer in self.peers)

    def total_payload_bytes(self) -> int:
        """Total stored payload bytes across all peers (cached per store)."""
        return sum(peer.store.total_payload_bytes() for peer in self.peers)

    def store_version_token(self) -> int:
        """The monotone network-wide mutation token (the ledger's tick).

        Every store write, every store a peer adopts and every membership
        change advances it, so equality with an earlier reading proves no
        peer's data and no partition index changed in between.  The
        :class:`~repro.engine.QueryEngine` compares it to decide when its
        whole-workload memos must be dropped.
        """
        return self.ledger.tick
