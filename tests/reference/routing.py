"""Reference: Algorithm 1's walk one hop and one message at a time.

:meth:`repro.overlay.routing.Router.route` walks in one loop: it tests
responsibility and the divergence level inline, writes each level's
``random.shuffle`` out as the ``getrandbits`` draws it makes, and on a
healthy transport without a verbose log charges the walk's hops as one
bulk ``ROUTE`` charge.  :meth:`~repro.overlay.routing.Router._live_replica`
writes the same shuffle out.  :class:`ReferenceRouter` is the walk as
it was written before: per hop a responsibility call, a common-prefix
call, a pick that calls ``random.shuffle`` on a copy of the level's
references, and one delivery (one tracer ``send``) — so the reached
peer, every counter, the message log and the router RNG's final state
must come out identical.  A Python whose ``shuffle`` draws differently
fails the twin test.
"""

from __future__ import annotations

from repro.core.errors import PartitionUnreachableError, RoutingError
from repro.overlay import keys as keyspace
from repro.overlay.messages import MessageType
from repro.overlay.peer import Peer
from repro.overlay.routing import MAX_HOPS_FACTOR, Partition, Router


def common_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix of two binary strings."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return i
    return limit


def responsible_for(peer: Peer, key: str) -> bool:
    """Algorithm 1's responsibility test: the peer's path is a prefix of
    the key (full-width lookups), or the key is a prefix of the path
    (prefix queries that the peer's whole partition satisfies)."""
    return key.startswith(peer.path) or peer.path.startswith(key)


class ReferenceRouter(Router):
    """A :class:`Router` whose walk and replica pick call the library."""

    def route(self, key: str, start_id: int, phase: str = "route") -> Peer:
        keyspace.validate_key(key)
        injector = self.network.fault_injector
        if injector is not None and injector.active:
            injector.session.record_target(self.network.partition_for(key))
        peer = self.network.peer(start_id)
        if not peer.online:
            peer = self._reroute_from_offline(peer)
        hops = 0
        max_hops = MAX_HOPS_FACTOR * (self.network.max_depth + 1)
        while not responsible_for(peer, key):
            level = common_prefix_len(peer.path, key)
            next_peer = self._pick_reference(peer, level)
            if not self._deliver(
                MessageType.ROUTE, peer.peer_id, next_peer, phase=phase
            ):
                next_peer = self._failover_reference(peer, level, next_peer)
            peer = next_peer
            hops += 1
            if hops > max_hops:
                raise RoutingError(
                    f"routing to {key!r} did not converge after {hops} hops"
                )
        return peer

    def _pick_reference(self, peer: Peer, level: int) -> Peer:
        """Random live routing reference at ``level`` (Algorithm 1 line 5)."""
        refs = peer.references(level)
        if not refs:
            raise RoutingError(
                f"peer {peer.peer_id} has no references at level {level}"
            )
        order = list(refs)
        self.rng.shuffle(order)
        for ref_id in order:
            candidate = self.network.peer(ref_id)
            if candidate.online:
                return candidate
            for replica_id in candidate.replicas:
                replica = self.network.peer(replica_id)
                if replica.online:
                    return replica
        raise PartitionUnreachableError(
            f"all references of peer {peer.peer_id} at level {level} are offline",
            peer_id=peer.peer_id,
        )

    def _live_replica(self, partition: Partition) -> Peer:
        order = list(partition.peer_ids)
        self.rng.shuffle(order)
        for peer_id in order:
            peer = self.network.peer(peer_id)
            if peer.online:
                return peer
        raise PartitionUnreachableError(
            f"partition {partition.path!r} has no online replica",
            partition_index=partition.index,
            partition_path=partition.path,
        )
