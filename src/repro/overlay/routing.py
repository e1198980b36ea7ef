"""Prefix routing — Algorithm 1 and its multicast/batched variants.

The :class:`Router` executes lookups hop-by-hop through the peers' routing
tables, charging one ``ROUTE`` message per hop to the network's tracer —
on a healthy transport without a verbose log as one bulk ``ROUTE`` charge
per walk, made when the walk ends or raises (identical counters).  Three
primitives cover everything the operators need:

* :meth:`Router.route` — Algorithm 1: walk to *a* peer responsible for a
  key.  Each hop strictly extends the common prefix with the target key,
  so the walk terminates in at most ``len(path)`` hops and, in a balanced
  trie, takes ``O(0.5 log N)`` expected messages (Section 2).
* :meth:`Router.multicast_prefix` — reach *every* partition under a key
  prefix: route to the first one, then disseminate through the subtrie
  with one ``FORWARD`` message per additional partition (the shower
  pattern of [6]).
* :meth:`Router.route_many` — the paper's batching optimization ("we
  collect the calls to Retrieve() and contact peers only once"): a set of
  keys is grouped by responsible partition and each partition is contacted
  once.

Failures: every partition has ``k`` replicas; the router picks a random
*online* replica and falls back to the others, raising
:class:`PartitionUnreachableError` only when a whole partition is dark.

Transport faults: when the network carries an *active*
:class:`~repro.overlay.faults.FaultInjector`, every send goes through
:meth:`Router._deliver` — drops are retried with capped exponential
backoff (charged under the ``retry`` phase), unanswering peers trigger
replica failover (charged under ``failover``), and partitions that stay
dark either raise (``FaultMode.STRICT``) or are skipped and recorded on
the injector's per-query session (``FaultMode.DEGRADED``).  With no
injector — or a no-op plan — the delivery path is byte-for-byte the
code below, so the measured series stay bit-identical.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.errors import PartitionUnreachableError, RoutingError
from repro.overlay import keys as keyspace
from repro.overlay.faults import DeliveryOutcome, FaultMode
from repro.overlay.messages import MessageTracer, MessageType
from repro.overlay.peer import Peer
from repro.storage.indexing import IndexEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overlay.network import PGridNetwork

#: Safety bound on routing hops; a correct trie never gets close.
MAX_HOPS_FACTOR = 4


class Router:
    """Hop-by-hop query routing over a :class:`PGridNetwork`."""

    def __init__(self, network: "PGridNetwork", rng: random.Random | None = None):
        self.network = network
        self.rng = rng if rng is not None else random.Random(network.config.seed + 1)

    @property
    def tracer(self) -> MessageTracer:
        return self.network.tracer

    # -- Algorithm 1 ---------------------------------------------------------

    def route(self, key: str, start_id: int, phase: str = "route") -> Peer:
        """Walk from ``start_id`` to a peer responsible for ``key``.

        Implements Algorithm 1's control flow; returns the final peer.
        Messages: one ``ROUTE`` per hop (the initiating peer's local
        processing is free).  On a healthy transport without a verbose
        log the walk's hops are charged at once when it ends, also when
        it raises (identical counters).  Each level's pick makes exactly
        the draws ``random.shuffle`` makes on a copy of its references.
        """
        keyspace.validate_key(key)
        network = self.network
        injector = network.fault_injector
        faulty = injector is not None and injector.active
        if faulty:
            injector.session.record_target(network.partition_for(key))
        peers = network.peers
        peer = peers[start_id]
        if not peer.online:
            peer = self._reroute_from_offline(peer)
        bulk = not faulty and not self.tracer.record_log
        getrandbits = self.rng.getrandbits
        hops = 0
        max_hops = MAX_HOPS_FACTOR * (network.max_depth + 1)
        try:
            while True:
                path = peer.path
                if key.startswith(path) or path.startswith(key):
                    return peer
                # Neither is a prefix of the other, so their first n bits
                # differ; the first difference, the XOR's highest bit, is
                # the level.
                n = len(path) if len(path) < len(key) else len(key)
                level = n - (int(path[:n], 2) ^ int(key[:n], 2)).bit_length()
                refs = peer.routing_table[level]
                if len(refs) == 2:
                    j = getrandbits(2)
                    while j > 1:
                        j = getrandbits(2)
                    if not j:
                        refs = refs[1], refs[0]
                elif len(refs) > 2:
                    refs = _shuffled(refs, getrandbits)
                next_peer = peers[refs[0]]
                if not next_peer.online:
                    next_peer = self._first_online(peer, level, refs)
                if not bulk and not self._deliver(
                    MessageType.ROUTE, peer.peer_id, next_peer, phase=phase
                ):
                    next_peer = self._failover_reference(peer, level, next_peer)
                peer = next_peer
                hops += 1
                if hops > max_hops:
                    raise RoutingError(
                        f"routing to {key!r} did not converge after {hops} hops"
                    )
        finally:
            if bulk and hops:
                self.tracer.send_bulk(MessageType.ROUTE, hops, 0, phase=phase)

    def retrieve(
        self, key: str, start_id: int, phase: str = "retrieve"
    ) -> tuple[list[IndexEntry], Peer]:
        """Algorithm 1's ``Retrieve``: entries whose key extends ``key``.

        When ``key`` is at least as long as the responsible peer's path,
        a single peer holds all matches; shorter (prefix) keys fan out to
        every partition under the prefix via :meth:`multicast_prefix`.
        Returns the matching entries and the peer that answered (the last
        one, for multicasts).
        """
        peer = self.route(key, start_id, phase=phase)
        if len(key) >= len(peer.path):
            return peer.store.prefix_scan(key), peer
        entries: list[IndexEntry] = []
        contacted = self.multicast_prefix(key, start_id, phase=phase)
        for member in contacted:
            entries.extend(member.store.prefix_scan(key))
        return entries, contacted[-1] if contacted else peer

    # -- multicast (shower) ---------------------------------------------------

    def multicast_prefix(
        self, prefix: str, start_id: int, phase: str = "multicast"
    ) -> list[Peer]:
        """Contact one live replica of every partition under ``prefix``.

        Cost model of the shower algorithm [6]: ordinary routing to enter
        the subtrie, then exactly one ``FORWARD`` message per additional
        partition — dissemination reuses the trie's internal references,
        so no partition is contacted twice.

        When the tracer keeps no verbose log, the forwards are
        bulk-charged (identical counters).  Naive broadcasts at paper
        scale touch every partition per query; this loop is their floor.
        """
        network = self.network
        partitions = network.partitions_under(prefix)
        if not partitions:
            raise RoutingError(f"no partition under prefix {prefix!r}")
        injector = network.fault_injector
        if injector is not None and injector.active:
            return self._multicast_prefix_faulty(partitions, start_id, phase)
        first = self.route(partitions[0].path, start_id, phase=phase)
        first_id = first.peer_id
        contacted = [first]
        bulk = not self.tracer.record_log
        for partition in partitions:
            if first_id in partition.peer_ids:
                continue
            replica = self._live_replica(partition)
            if not bulk:
                self.tracer.send(
                    MessageType.FORWARD, contacted[-1].peer_id, replica.peer_id,
                    phase=phase,
                )
            contacted.append(replica)
        if bulk:
            self.tracer.send_bulk(
                MessageType.FORWARD, len(contacted) - 1, 0, phase=phase
            )
        return contacted

    def _multicast_prefix_faulty(
        self, partitions: Sequence["Partition"], start_id: int, phase: str
    ) -> list[Peer]:
        """Shower dissemination under an active fault injector.

        Routes into the first *reachable* partition, then contacts every
        further partition through :meth:`_contact_partition` (retry +
        replica failover).  In ``DEGRADED`` mode dark partitions are
        recorded on the fault session and skipped; in ``STRICT`` mode
        the first dark partition raises, matching the healthy path's
        semantics.
        """
        session = self.network.fault_injector.session
        degraded = self.network.fault_mode is FaultMode.DEGRADED
        for partition in partitions:
            session.record_target(partition)
        first: Peer | None = None
        entry_index = 0
        for index, partition in enumerate(partitions):
            try:
                first = self.route(partition.path, start_id, phase=phase)
                entry_index = index
                break
            except PartitionUnreachableError:
                if not degraded:
                    raise
                session.record_dark(partition)
        if first is None:
            return []
        contacted = [first]
        for partition in partitions[entry_index:]:
            if partition.contains(first.peer_id):
                continue
            replica = self._contact_partition(
                partition, contacted[-1].peer_id, phase
            )
            if replica is None:
                continue
            contacted.append(replica)
        return contacted

    # -- batched retrieval ------------------------------------------------------

    def route_many(
        self, keys: Iterable[str], start_id: int, phase: str = "batch"
    ) -> dict[str, Peer]:
        """Route a batch of keys, contacting each responsible partition once.

        Returns a map from key to the peer answering it: the keys grouped
        by responsible partition, then :meth:`route_partitions`.
        """
        by_partition: dict[int, list[str]] = defaultdict(list)
        for key in sorted(set(keys)):
            by_partition[self.network.partition_for(key).index].append(key)
        reached = self.route_partitions(by_partition, start_id, phase=phase)
        return {
            key: peer
            for index, peer in reached.items()
            for key in by_partition[index]
        }

    def route_partitions(
        self, indices: Iterable[int], start_id: int, phase: str = "batch"
    ) -> dict[int, Peer]:
        """Contact each of the given partitions once, in index order.

        Returns a map from partition index to the peer that answered
        (partitions left dark in ``DEGRADED`` mode are absent).  Cost: one
        routed walk to the first partition, then one ``FORWARD`` per
        further partition (shower-style), instead of a full routed walk
        per key.  On a healthy transport without a verbose log the
        forwards are bulk-charged (identical counters).
        """
        injector = self.network.fault_injector
        faulty = injector is not None and injector.active
        degraded = faulty and self.network.fault_mode is FaultMode.DEGRADED
        bulk = not faulty and not self.tracer.record_log
        forwards = 0
        reached: dict[int, Peer] = {}
        previous: Peer | None = None
        try:
            partitions = self.network.partitions
            for index in sorted(indices):
                partition = partitions[index]
                if faulty:
                    injector.session.record_target(partition)
                if previous is None:
                    try:
                        peer = self.route(partition.path, start_id, phase=phase)
                    except PartitionUnreachableError:
                        if not degraded:
                            raise
                        injector.session.record_dark(partition)
                        continue
                elif faulty:
                    contacted = self._contact_partition(
                        partition, previous.peer_id, phase
                    )
                    if contacted is None:
                        continue
                    peer = contacted
                else:
                    peer = self._live_replica(partition)
                    if bulk:
                        forwards += 1
                    else:
                        self.tracer.send(
                            MessageType.FORWARD, previous.peer_id, peer.peer_id,
                            phase=phase,
                        )
                reached[index] = previous = peer
        finally:
            # Also on a dark partition's raise: the forwards before it
            # were sent, exactly as the per-message loop charges them.
            if forwards:
                self.tracer.send_bulk(
                    MessageType.FORWARD, forwards, 0, phase=phase
                )
        return reached

    # -- explicit message accounting helpers -----------------------------------

    def send_result(
        self, sender: int, receiver: int, payload_bytes: int, phase: str = "result"
    ) -> bool:
        """Charge one result-return message; False if faults dropped it."""
        return self._send_direct(
            MessageType.RESULT, sender, receiver, payload_bytes, phase
        )

    def send_delegate(
        self, sender: int, receiver: int, payload_bytes: int, phase: str = "delegate"
    ) -> bool:
        """Charge one plan-delegation message; False if faults dropped it."""
        return self._send_direct(
            MessageType.DELEGATE, sender, receiver, payload_bytes, phase
        )

    def send_broadcast(
        self, sender: int, receiver: int, payload_bytes: int, phase: str = "broadcast"
    ) -> bool:
        """Charge one naive-strategy broadcast message; False if dropped."""
        return self._send_direct(
            MessageType.BROADCAST, sender, receiver, payload_bytes, phase
        )

    def send_broadcast_fanout(
        self,
        sender: int,
        peers: Sequence[Peer],
        payload_bytes: int,
        phase: str = "broadcast",
    ) -> list[Peer]:
        """Charge one broadcast query copy of ``payload_bytes`` per peer.

        The naive operator's broadcast charge.  Under an active fault
        plan each copy goes through :meth:`send_broadcast_failover` and
        the receivers reached come back (dark partitions drop out); on a
        healthy transport every peer is reached, charged one message at
        a time when the tracer keeps a verbose log and in bulk otherwise
        (identical counters).
        """
        if self.faults_active():
            reached = []
            for peer in peers:
                receiver = self.send_broadcast_failover(
                    sender, peer, payload_bytes, phase=phase
                )
                if receiver is not None:
                    reached.append(receiver)
            return reached
        if self.tracer.record_log:
            for peer in peers:
                self.send_broadcast(
                    sender, peer.peer_id, payload_bytes, phase=phase
                )
        else:
            self.tracer.send_bulk(
                MessageType.BROADCAST,
                len(peers),
                len(peers) * payload_bytes,
                phase=phase,
            )
        return list(peers)

    # -- fault-aware delivery ----------------------------------------------------

    def faults_active(self) -> bool:
        """True when an active fault injector intercepts deliveries."""
        injector = self.network.fault_injector
        return injector is not None and injector.active

    def record_dropped_candidates(self, count: int) -> None:
        """Note ``count`` result rows lost to undeliverable messages."""
        injector = self.network.fault_injector
        if injector is not None and injector.active:
            injector.session.dropped_candidates += count

    def _deliver(
        self,
        msg_type: MessageType,
        sender_id: int,
        receiver: Peer,
        payload_bytes: int = 0,
        phase: str = "query",
    ) -> bool:
        """Send one message through the fault injector, retrying drops.

        The first attempt is charged under the caller's ``phase`` (so a
        clean delivery is indistinguishable from the healthy path);
        every retry is charged under ``retry``.  Returns False when the
        receiver is unavailable (the caller fails over) or when the
        policy's attempt cap / the session's retry budget is exhausted.
        """
        injector = self.network.fault_injector
        if injector is None or not injector.active:
            self.tracer.send(
                msg_type, sender_id, receiver.peer_id, payload_bytes, phase=phase
            )
            return True
        policy = injector.policy
        session = injector.session
        attempt = 1
        while True:
            self.tracer.send(
                msg_type,
                sender_id,
                receiver.peer_id,
                payload_bytes,
                phase=phase if attempt == 1 else "retry",
            )
            if attempt > 1:
                session.retries += 1
            session.simulated_latency += injector.link_latency(
                sender_id, receiver.peer_id
            )
            outcome = injector.attempt(sender_id, receiver.peer_id)
            if outcome is DeliveryOutcome.DELIVERED:
                return True
            if outcome is DeliveryOutcome.UNAVAILABLE:
                session.timeouts += 1
                session.simulated_latency += policy.timeout
                return False
            session.dropped_messages += 1
            if attempt >= policy.max_attempts or not session.consume_retry():
                return False
            session.simulated_latency += policy.backoff(attempt)
            attempt += 1

    def _send_direct(
        self,
        msg_type: MessageType,
        sender: int,
        receiver: int,
        payload_bytes: int,
        phase: str,
    ) -> bool:
        """One point-to-point message (result/delegate/broadcast).

        Healthy path: a single tracer charge, always delivered.  Under
        an active injector the delivery is retried like any other; an
        undeliverable message raises in ``STRICT`` mode and returns
        False in ``DEGRADED`` mode (callers drop the affected rows and
        record them via :meth:`record_dropped_candidates`).
        """
        injector = self.network.fault_injector
        if injector is None or not injector.active:
            self.tracer.send(msg_type, sender, receiver, payload_bytes, phase=phase)
            return True
        delivered = self._deliver(
            msg_type, sender, self.network.peer(receiver), payload_bytes, phase
        )
        if not delivered and self.network.fault_mode is FaultMode.STRICT:
            raise RoutingError(
                f"delivery of {msg_type.value} message from peer {sender} "
                f"to peer {receiver} failed after retries",
                peer_id=receiver,
            )
        return delivered

    def send_broadcast_failover(
        self,
        sender: int,
        peer: Peer,
        payload_bytes: int,
        phase: str = "broadcast",
    ) -> Peer | None:
        """Deliver one broadcast query copy, failing over to replicas.

        Active faults only (callers use :meth:`send_broadcast` on the
        healthy path).  Returns the replica that finally received the
        copy; when the whole partition is unreachable, ``DEGRADED``
        records it dark and returns ``None`` while ``STRICT`` raises.
        """
        injector = self.network.fault_injector
        session = injector.session
        if self._deliver(
            MessageType.BROADCAST, sender, peer, payload_bytes, phase=phase
        ):
            return peer
        partition = self.network.partition(peer.partition_index)
        for replica_id in peer.replicas:
            replica = self.network.peer(replica_id)
            if not replica.online:
                continue
            session.failovers += 1
            if self._deliver(
                MessageType.BROADCAST, sender, replica, payload_bytes,
                phase="failover",
            ):
                return replica
        if self.network.fault_mode is FaultMode.DEGRADED:
            session.record_dark(partition)
            return None
        raise PartitionUnreachableError(
            f"broadcast into partition {partition.path!r} failed on every replica",
            partition_index=partition.index,
            partition_path=partition.path,
        )

    def _contact_partition(
        self, partition: "Partition", sender_id: int, phase: str
    ) -> Peer | None:
        """Forward into one partition under faults, failing over replicas.

        Tries a random online replica first (charged under the caller's
        phase), then the remaining online replicas (each contact charged
        under ``failover``).  When every replica is offline or
        unreachable: ``STRICT`` raises a :class:`PartitionUnreachableError`
        carrying the partition's index/path, ``DEGRADED`` records the
        partition dark on the fault session and returns ``None``.
        """
        injector = self.network.fault_injector
        session = injector.session
        order = list(partition.peer_ids)
        self.rng.shuffle(order)
        first_contact = True
        for peer_id in order:
            replica = self.network.peer(peer_id)
            if not replica.online:
                continue
            if not first_contact:
                session.failovers += 1
            delivered = self._deliver(
                MessageType.FORWARD,
                sender_id,
                replica,
                phase=phase if first_contact else "failover",
            )
            first_contact = False
            if delivered:
                return replica
        if self.network.fault_mode is FaultMode.DEGRADED:
            session.record_dark(partition)
            return None
        raise PartitionUnreachableError(
            f"partition {partition.path!r} has no reachable replica",
            partition_index=partition.index,
            partition_path=partition.path,
        )

    def _failover_reference(self, peer: Peer, level: int, failed: Peer) -> Peer:
        """Re-route one hop after a failed delivery (active faults only).

        Retries the remaining online candidates at ``level`` — the other
        routing references and the replicas sharing their partitions —
        charging each contact under the ``failover`` phase.  Raises a
        context-carrying :class:`PartitionUnreachableError` when no
        candidate answers.
        """
        injector = self.network.fault_injector
        session = injector.session
        tried = {failed.peer_id}
        for ref_id in peer.references(level):
            candidate = self.network.peer(ref_id)
            for option_id in (candidate.peer_id, *candidate.replicas):
                if option_id in tried:
                    continue
                tried.add(option_id)
                option = self.network.peer(option_id)
                if not option.online:
                    continue
                session.failovers += 1
                if self._deliver(
                    MessageType.ROUTE, peer.peer_id, option, phase="failover"
                ):
                    return option
        raise PartitionUnreachableError(
            f"peer {peer.peer_id} could not reach any reference at level {level}",
            peer_id=peer.peer_id,
        )

    # -- internals ---------------------------------------------------------------

    def _first_online(
        self, peer: Peer, level: int, order: Sequence[int]
    ) -> Peer:
        """The first online reference of ``order``, or failing that the
        first online replica sharing its partition (redundant routing
        entries, Section 2), before the next reference."""
        peers = self.network.peers
        for ref_id in order:
            candidate = peers[ref_id]
            if candidate.online:
                return candidate
            for replica_id in candidate.replicas:
                replica = peers[replica_id]
                if replica.online:
                    return replica
        raise PartitionUnreachableError(
            f"all references of peer {peer.peer_id} at level {level} are offline",
            peer_id=peer.peer_id,
        )

    def _live_replica(self, partition: "Partition") -> Peer:
        """Random online peer of a partition — the one place that picks
        a replica.  An unreplicated partition skips the shuffle:
        ``random.shuffle`` of a one-element list consumes no RNG draws, so
        the draw sequence is the same either way."""
        order = partition.peer_ids
        if len(order) > 1:
            order = _shuffled(order, self.rng.getrandbits)
        peers = self.network.peers
        for peer_id in order:
            peer = peers[peer_id]
            if peer.online:
                return peer
        raise PartitionUnreachableError(
            f"partition {partition.path!r} has no online replica",
            partition_index=partition.index,
            partition_path=partition.path,
        )

    def _reroute_from_offline(self, peer: Peer) -> Peer:
        """Restart from a live replica when the chosen initiator is down."""
        for replica_id in peer.replicas:
            replica = self.network.peer(replica_id)
            if replica.online:
                return replica
        raise PartitionUnreachableError(
            f"initiating peer {peer.peer_id} and all its replicas are offline",
            peer_id=peer.peer_id,
        )


def _shuffled(ids: Sequence[int], getrandbits) -> list[int]:
    """A copy of ``ids`` put in the order ``random.shuffle`` gives it,
    with its draws written out: for ``i = n-1 .. 1``, ``randbelow(i + 1)``
    as ``getrandbits`` computes it, then a swap."""
    order = list(ids)
    for i in range(len(order) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order


class Partition:
    """One key-space partition: a leaf path plus its replica peers."""

    __slots__ = ("index", "path", "peer_ids")

    def __init__(self, index: int, path: str, peer_ids: Sequence[int]):
        self.index = index
        self.path = path
        self.peer_ids = tuple(peer_ids)

    def contains(self, peer_id: int) -> bool:
        return peer_id in self.peer_ids

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Partition({self.index}, {self.path!r}, peers={self.peer_ids})"
