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
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

from repro.core.config import StoreConfig, TrieBalancing
from repro.core.errors import OverlayError
from repro.overlay import keys as keyspace
from repro.overlay import trie
from repro.overlay.faults import FaultInjector, FaultMode, FaultPlan, RetryPolicy
from repro.overlay.hashing import CompositeKeyCodec
from repro.overlay.messages import MessageTracer
from repro.overlay.peer import NetworkLedger, Peer
from repro.overlay.routing import Partition, Router
from repro.storage.indexing import EntryFactory, IndexEntry
from repro.storage.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - incremental builds on this module
    from repro.overlay.incremental import PreparedDataset

_entry_key = attrgetter("key")


class PartitionWrite(NamedTuple):
    """What one :meth:`PGridNetwork.apply_entries` call did to one partition
    — what the engine's memos need to drop exactly what was written."""

    #: The entries applied: every one given for the partition on an
    #: insert; on a removal those some contacted replica actually held.
    entries: Sequence[IndexEntry]
    #: ``entries`` were removed, not added.
    removed: bool
    #: Store version token ``before -> after`` over *every* replica of
    #: the partition; equal for a replica the write did not change
    #: (offline under ``respect_online``, or holding nothing that was
    #: removed).  One-to-one: where replicas at one token part ways, it
    #: maps to the one new token the written ones share.
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
        codec: CompositeKeyCodec | None = None,
    ):
        """Build a network of about ``n_peers``.

        There are ``max(1, n_peers // k)`` partitions of ``k =
        config.replication`` peers each, so the network holds ``k ·
        max(1, n_peers // k)`` peers: 512 at replication 3 are 510, and 2
        at replication 3 are 3.

        ``sample_keys`` feeds the data-aware trie builder; pass the keys of
        the data you are about to insert (or a sample of them) to get
        P-Grid-style load balancing.  Omitting it — or selecting
        ``TrieBalancing.UNIFORM`` — produces an evenly split trie.

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
                n_partitions, sample_keys, self.config.key_bits
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
                self.peers[peer_id].replicas = tuple(
                    other for other in peer_ids if other != peer_id
                )
        self._build_routing_tables()
        #: Transport fault injection (None, or an injector whose no-op
        #: plan keeps it inactive, leaves the delivery path untouched).
        self.fault_injector: FaultInjector | None = None
        #: How unrecoverable delivery failures surface: STRICT raises,
        #: DEGRADED skips dark partitions and records partial coverage.
        self.fault_mode: FaultMode = FaultMode.STRICT
        self.router = Router(self, random.Random(self.config.seed + 1))
        #: The dataset this network was placed from, if any — held so
        #: equal builds share it while this network lives (see
        #: :meth:`~repro.overlay.incremental.PreparedDataset.prepare`).
        self.dataset: PreparedDataset | None = None

    # -- construction ---------------------------------------------------------

    def _build_routing_tables(self) -> None:
        """Wire ``refs_per_level`` random references per peer and level.

        Candidate partitions under a sibling prefix form a contiguous run
        of the sorted path list, so each reference is drawn directly from
        the bisected index span — O(log P) per level instead of
        materializing the whole complementary subtrie.  Partitions are
        wired in path order, so the partitions drawing from one sibling
        at one level are consecutive too: per level the build keeps only
        the current sibling run — its span, computed once, and a
        ``{refs: refs}`` dict through which the run's peers share one
        tuple per distinct level value — and replaces it when the run
        changes.  Sharing is safe because a level is an immutable tuple
        that membership changes replace, never edit.  The draws
        themselves cannot be shared: peer by peer, level by level,
        reference by reference, the RNG is consumed exactly as by the
        materializing reference in ``tests/reference/routing_tables.py``,
        so the tables, the RNG state after them, and every measured
        message series are bit-identical to it.  Each draw is
        ``randrange(n)`` inlined: it is ``getrandbits(n.bit_length())``,
        repeated while the value is not below ``n``
        (``Random._randbelow_with_getrandbits``); every partition has
        ``k`` replicas here.
        """
        refs_per_level = self.config.refs_per_level
        getrandbits = self.rng.getrandbits
        k = self.config.replication
        k_bits = k.bit_length()
        partitions = self.partitions
        peers = self.peers
        #: runs[level]: (sibling, lo, count, count bits, refs drawn,
        #: shared level tuples) of the last sibling run seen at ``level``.
        runs: list[tuple[str, int, int, int, int, dict]] = []
        for partition in partitions:
            path = partition.path
            for level, bit in enumerate(path):
                # keyspace.sibling_prefix(path, level), without the call.
                sibling = path[:level] + ("1" if bit == "0" else "0")
                if level < len(runs) and runs[level][0] == sibling:
                    continue
                lo, hi = self.partition_span(sibling)
                count = hi - lo
                if count <= 0:
                    raise OverlayError(
                        f"complementary subtrie {sibling!r} is empty — "
                        "the trie cover is broken"
                    )
                run = (
                    sibling, lo, count, count.bit_length(),
                    min(refs_per_level, count), {},
                )
                if level < len(runs):
                    runs[level] = run
                else:
                    runs.append(run)
            levels = runs[: len(path)]
            for peer_id in partition.peer_ids:
                table = []
                for _sibling, lo, count, count_bits, n_refs, shared in levels:
                    refs = []
                    for __ in range(n_refs):
                        index = getrandbits(count_bits)
                        while index >= count:
                            index = getrandbits(count_bits)
                        replica = getrandbits(k_bits)
                        while replica >= k:
                            replica = getrandbits(k_bits)
                        refs.append(partitions[lo + index].peer_ids[replica])
                    drawn = tuple(refs)
                    table.append(shared.setdefault(drawn, drawn))
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
        as an offline bulk load.

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
        :class:`EntryFactory`, and each network re-places the same entry
        list.  The trie's paths are sorted and prefix-free, so a
        partition's entries are the run of ``entries`` that ends at the
        next path: one ``bisect_left`` per partition finds it, and every
        replica takes that slice with one ``add_bulk`` — O(P log E), no
        per-entry work — the replicas written from one version token then
        sharing one.  A run whose first or last key its path does not
        prefix (only a key shorter than a path does that) is placed by
        the oracle, entry by entry, through :meth:`apply_entries`.
        ``entries`` must be sorted by ``key`` (ties in any order);
        placement is oracle-based exactly like :meth:`insert_triples`.
        Returns the number of entries placed.
        """
        paths = self._paths
        partitions = self.partitions
        peers = self.peers
        total = len(entries)
        start = 0
        for index, path in enumerate(paths):
            if index + 1 < len(paths):
                end = bisect.bisect_left(
                    entries, paths[index + 1], start, total, key=_entry_key
                )
            else:
                end = total
            if start == end:
                continue
            run = entries[start:end]
            if run[0].key.startswith(path) and run[-1].key.startswith(path):
                tokens: dict[int, int] = {}
                for peer_id in partitions[index].peer_ids:
                    peers[peer_id].store.add_bulk(run, tokens)
            else:
                self.apply_entries(run)
            start = end
        return total

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
        those entries name and keep the rest of the partition.  The
        replicas it changed from one token share one new token.
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
            moved: dict[int, int] = {}
            flags: list[list[bool]] = []
            contacted = False
            for peer_id in self.partitions[index].peer_ids:
                peer = peers[peer_id]
                store = peer.store
                versions.setdefault(store.version, store.version)
                if peer.online or not respect_online:
                    contacted = True
                    if remove:
                        flags.append(store.remove_bulk(partition_entries, moved))
                    else:
                        store.add_bulk(partition_entries, moved)
            if not contacted:
                continue
            versions.update(moved)
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
        return sum(peer.store.payload_bytes() for peer in self.peers)

    def store_version_token(self) -> int:
        """The monotone network-wide mutation token (the ledger's tick).

        Every store write, every store a peer adopts and every membership
        change advances it, so equality with an earlier reading proves no
        peer's data and no partition index changed in between.  The
        :class:`~repro.engine.QueryEngine` compares it to decide when its
        whole-workload memos must be dropped.
        """
        return self.ledger.tick
