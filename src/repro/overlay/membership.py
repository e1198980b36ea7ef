"""Dynamic membership: peers joining and leaving a live network.

The static constructor of :class:`~repro.overlay.network.PGridNetwork`
builds the converged state of P-Grid's construction algorithm [2]; this
module implements the *dynamics* the paper relies on for churny
deployments:

* :meth:`MembershipManager.join` — a new peer joins by splitting the most
  loaded partition (P-Grid construction splits on pairwise encounters and
  converges to balanced load; the simulator, with its global view, splits
  the heaviest leaf directly): the old partition's path ``pi`` becomes
  ``pi+'0'`` and ``pi+'1'``, the stored entries are divided by key, both
  sides get fresh routing tables, and every other peer learns about the
  new level lazily — stale references still route correctly because a
  reference into the complementary subtrie of level ``l`` remains in that
  subtrie after any deeper split (prefix routing is split-stable);
* :meth:`MembershipManager.leave` — a peer leaves gracefully: its
  replicas keep the partition alive, or — if it was the last replica —
  the partition *merges* with its trie sibling: the departing peer hands
  its entries to the sibling subtree's peers, whose coverage then
  includes the vacated region, and every routing reference into the
  vacated leaf is pointed at them.

Invariants maintained (and property-tested): partition paths always form
a complete prefix-free cover; every stored entry remains reachable by
``Retrieve`` after any sequence of joins and leaves.
"""

from __future__ import annotations

from repro.core.errors import OverlayError
from repro.overlay import keys as keyspace
from repro.overlay.network import PGridNetwork
from repro.overlay.peer import Peer
from repro.overlay.routing import Partition
from repro.storage.indexing import IndexEntry


class MembershipManager:
    """Join/leave driver for one network."""

    def __init__(self, network: PGridNetwork):
        self.network = network

    # -- join -------------------------------------------------------------------

    def join(self) -> Peer:
        """Add one peer to the network; returns the new peer.

        The heaviest partition splits (unless the network still has spare
        replica slots in an under-replicated partition, which are filled
        first).  Entry migration and the two fresh routing tables are
        charged as messages in the ``membership`` phase.
        """
        network = self.network
        under = self._under_replicated()
        if under is not None:
            peer = self._join_as_replica(under)
        else:
            peer = self._split_partition(self._heaviest_splittable())
        # The mutation token covers membership itself: partition indices
        # may have been renumbered and replica sets changed even when no
        # store was written, and index-keyed memos must notice.
        network.ledger.tick += 1
        return peer

    def _under_replicated(self) -> Partition | None:
        want = self.network.config.replication
        for partition in self.network.partitions:
            if len(partition.peer_ids) < want:
                return partition
        return None

    def _heaviest_splittable(self) -> Partition:
        network = self.network
        best: Partition | None = None
        best_load = -1
        for partition in network.partitions:
            if len(partition.path) >= network.config.key_bits:
                continue
            load = len(network.peer(partition.peer_ids[0]).store)
            if load > best_load:
                best = partition
                best_load = load
        if best is None:
            raise OverlayError("no partition can be split further")
        return best

    def _join_as_replica(self, partition: Partition) -> Peer:
        network = self.network
        peer = Peer(
            len(network.peers), partition.path, partition.index, network.ledger
        )
        network.peers.append(peer)
        new_ids = partition.peer_ids + (peer.peer_id,)
        network.partitions[partition.index] = Partition(
            partition.index, partition.path, new_ids
        )
        for peer_id in new_ids:
            network.peer(peer_id).replicas = tuple(
                i for i in new_ids if i != peer_id
            )
        # The new replica copies the partition's data from a sibling.
        source = network.peer(partition.peer_ids[0])
        entries = list(source.store)
        peer.store.add_bulk(entries)
        peer.store.adopt(source.store)  # a copy: one content, one token
        self._charge_transfer(source.peer_id, peer.peer_id, entries)
        self._build_routing_for(peer)
        return peer

    def _split_partition(self, partition: Partition) -> Peer:
        network = self.network
        old_path = partition.path
        left_path = old_path + "0"
        right_path = old_path + "1"

        # Its partition index is stamped by ``_install_partitions`` below.
        new_peer = Peer(len(network.peers), right_path, -1, network.ledger)
        network.peers.append(new_peer)

        # The incumbent peers specialize to the '0' side; the newcomer
        # takes '1'.  (P-Grid's pairwise exchange; sides are symmetric.)
        moved: list[IndexEntry] = []
        tokens: dict[int, int] = {}
        for peer_id in partition.peer_ids:
            incumbent = network.peer(peer_id)
            incumbent.path = left_path
            leaving = [e for e in incumbent.store if e.key.startswith(right_path)]
            incumbent.store.remove_bulk(leaving, tokens)
            moved.extend(leaving)
        # Deduplicate the replica copies: the newcomer stores one copy.
        unique: dict[tuple, IndexEntry] = {}
        for entry in moved:
            unique[(entry.key, entry.kind.value, entry.triple, entry.gram,
                    entry.position)] = entry
        migrated = list(unique.values())
        new_peer.store.add_bulk(migrated)
        self._charge_transfer(
            partition.peer_ids[0], new_peer.peer_id, migrated
        )

        # Rebuild the partition table: replace the old leaf with two.
        left = Partition(0, left_path, partition.peer_ids)
        right = Partition(0, right_path, (new_peer.peer_id,))
        remaining = [
            p for p in network.partitions if p.index != partition.index
        ]
        remaining.extend([left, right])
        self._install_partitions(remaining)
        for peer_id in partition.peer_ids:
            network.peer(peer_id).replicas = tuple(
                i for i in partition.peer_ids if i != peer_id
            )

        # Fresh routing tables for everyone whose view changed; the new
        # deepest level of the incumbents points at the newcomer and vice
        # versa.
        for peer_id in partition.peer_ids:
            self._build_routing_for(network.peer(peer_id))
        self._build_routing_for(new_peer)
        return new_peer

    # -- leave -------------------------------------------------------------------

    def leave(self, peer_id: int) -> None:
        """Remove a peer gracefully.

        With surviving replicas the partition just shrinks.  A *last*
        replica can only leave when its trie sibling is a single leaf:
        the sibling's peers then widen their path by one bit (a sound
        merge — their routing tables lose the deepest level, their stores
        absorb the departed entries, every reference to the departed
        peer now names one of them, and the cover stays complete).

        A last replica whose sibling subtree is deep cannot merge without
        reshuffling that entire subtree, which real P-Grid avoids too —
        deployments keep ``replication >= 2`` and drain replicas first.
        That case raises :class:`OverlayError`, mirroring the paper's
        operating assumption that "at least one peer in each partition is
        reachable".
        """
        network = self.network
        peer = network.peer(peer_id)
        if not peer.online:
            raise OverlayError(f"peer {peer_id} is already offline")
        partition = network.partition(peer.partition_index)
        survivors = [i for i in partition.peer_ids if i != peer_id]
        if survivors:
            network.partitions[partition.index] = Partition(
                partition.index, partition.path, tuple(survivors)
            )
            for survivor in survivors:
                network.peer(survivor).replicas = tuple(
                    i for i in survivors if i != survivor
                )
            peer.online = False
        else:
            self._merge_into_leaf_sibling(partition, peer)
        network.ledger.tick += 1  # as in join(): an empty peer writes no store

    def _merge_into_leaf_sibling(self, partition: Partition, peer: Peer) -> None:
        network = self.network
        path = partition.path
        if not path:
            raise OverlayError("the last peer of the network cannot leave")
        sibling_prefix = keyspace.sibling_prefix(path, len(path) - 1)
        sibling_partitions = [
            p for p in network.partitions if p.path.startswith(sibling_prefix)
        ]
        if len(sibling_partitions) != 1:
            raise OverlayError(
                f"last replica of {path!r} cannot leave: its sibling subtree "
                f"spans {len(sibling_partitions)} partitions (drain replicas "
                "or join peers first)"
            )
        absorber = sibling_partitions[0]
        parent = path[:-1]
        entries = list(peer.store)
        tokens: dict[int, int] = {}
        new_partitions = []
        for p in network.partitions:
            if p.index == partition.index:
                continue
            if p.index == absorber.index:
                new_partitions.append(Partition(0, parent, absorber.peer_ids))
            else:
                new_partitions.append(p)
        self._install_partitions(new_partitions)
        for member in absorber.peer_ids:
            receiver = network.peer(member)
            receiver.path = parent
            del receiver.routing_table[-1]
            receiver.store.add_bulk(entries, tokens)
            self._charge_transfer(peer.peer_id, member, entries)
        peer.online = False
        self._redirect_references(path, absorber.peer_ids[0])

    def _redirect_references(self, path: str, target: int) -> None:
        """Point every routing reference into the merged-away ``path`` at
        ``target``, a member of the absorbing partition.

        The departed peer was the last live one of ``path``, so neither
        it nor a replica that left before it can forward anything.  The
        absorber's new path — the parent of ``path`` — lies in every
        complementary subtrie that held ``path``, except at the
        absorber's own deepest level, which the merge has deleted; so a
        redirected reference stays in its level's subtrie, and no RNG
        draw is spent on it.
        """
        peers = self.network.peers
        gone = {left.peer_id for left in peers if left.path == path}
        for other in peers:
            table = other.routing_table
            for level, refs in enumerate(table):
                if not gone.isdisjoint(refs):
                    table[level] = tuple(
                        target if ref in gone else ref for ref in refs
                    )

    # -- shared helpers -------------------------------------------------------------

    def _install_partitions(self, partitions: list[Partition]) -> None:
        """Adopt a changed partition table: renumber in path order and
        stamp every member peer with its partition's new index."""
        network = self.network
        partitions.sort(key=lambda p: p.path)
        network.partitions = [
            Partition(i, p.path, p.peer_ids) for i, p in enumerate(partitions)
        ]
        network._paths = [p.path for p in network.partitions]
        network.max_depth = max(len(p) for p in network._paths)
        for partition in network.partitions:
            for peer_id in partition.peer_ids:
                network.peer(peer_id).partition_index = partition.index

    def _build_routing_for(self, peer: Peer) -> None:
        network = self.network
        table = []
        for level in range(len(peer.path)):
            sibling = keyspace.sibling_prefix(peer.path, level)
            candidates = network.partitions_under(sibling)
            if not candidates:
                raise OverlayError(
                    f"complementary subtrie {sibling!r} is empty after a "
                    "membership change"
                )
            refs = []
            for __ in range(
                min(network.config.refs_per_level, len(candidates))
            ):
                partition = candidates[network.rng.randrange(len(candidates))]
                refs.append(
                    partition.peer_ids[
                        network.rng.randrange(len(partition.peer_ids))
                    ]
                )
            table.append(tuple(refs))
        peer.routing_table = table

    def _charge_transfer(
        self, sender: int, receiver: int, entries: list[IndexEntry]
    ) -> None:
        from repro.overlay.messages import MessageType

        payload = sum(e.payload_size() for e in entries)
        self.network.tracer.send(
            MessageType.RESULT, sender, receiver, payload, phase="membership"
        )
