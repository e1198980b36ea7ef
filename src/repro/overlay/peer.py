"""The peer model: path, routing table, replicas, local datastore.

A :class:`Peer` owns

* its **path** ``pi(p)`` — the binary prefix of the key space it is
  responsible for;
* a **routing table** ``rho(p, l)`` — for every level ``l < |pi(p)|``, a
  set of references to peers in the *complementary* subtrie at that level
  (paths starting with ``pi(p)[:l]`` + inverted bit), with exponentially
  increasing key-space distance — the small-world construction of
  Section 2;
* **replica references** ``sigma(p)`` — other peers sharing the same path
  (structural replication);
* a **local datastore** ``delta(p)`` holding the index entries whose key
  matches its path.

Peers are addressed by integer id inside a network; references are stored
as ids to keep the object graph flat and picklable.

Every peer of a network shares that network's :class:`NetworkLedger`:
assigning :attr:`Peer.online` or :attr:`Peer.store` keeps the ledger's
offline count and mutation tick current, so "is anyone offline?" and "did
any store change?" are O(1) reads instead of scans over all peers.
"""

from __future__ import annotations

from repro.core.errors import OverlayError
from repro.storage.datastore import LocalDataStore


class NetworkLedger:
    """Network-wide bookkeeping shared by a network, its peers and stores.

    ``offline`` is the number of peers whose :attr:`Peer.online` is False.
    ``tick`` advances on every store mutation, store replacement and
    membership change, and never decreases: two equal readings prove that
    no peer's data and no partition index changed in between.
    """

    __slots__ = ("offline", "tick")

    def __init__(self) -> None:
        self.offline = 0
        self.tick = 0


class Peer:
    """One simulated peer."""

    __slots__ = (
        "peer_id", "path", "partition_index", "routing_table", "replicas",
        "_ledger", "_store", "_online",
    )

    def __init__(
        self, peer_id: int, path: str, partition_index: int, ledger: NetworkLedger
    ):
        self.peer_id = peer_id
        self.path = path
        #: Index of this peer's partition in ``network.partitions`` (kept
        #: current by the network constructor and ``MembershipManager``).
        self.partition_index = partition_index
        #: routing_table[l] = tuple of peer ids with path prefix
        #: ``sibling_prefix(path, l)``; one tuple per level
        #: 0..len(path)-1, installed by whoever creates the peer (the
        #: network constructor, ``MembershipManager``).  Tuples of ints
        #: leave the cyclic collector's books at its first pass over them.
        self.routing_table: list[tuple[int, ...]] = []
        #: ids of peers with the same path (data replication refs).
        self.replicas: tuple[int, ...] = ()
        self._ledger = ledger
        self._store = LocalDataStore(ledger)
        self._online = True

    @property
    def online(self) -> bool:
        """Whether the peer answers; assignment maintains the ledger."""
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        value = bool(value)
        if value != self._online:
            self._ledger.offline += -1 if value else 1
            self._online = value

    @property
    def store(self) -> LocalDataStore:
        """The local datastore ``delta(p)``; assignment re-homes the new
        store on the ledger and counts as a mutation."""
        return self._store

    @store.setter
    def store(self, value: LocalDataStore) -> None:
        value.attach(self._ledger)
        self._store = value

    def references(self, level: int) -> tuple[int, ...]:
        """``rho(p, level)`` — routing references at one trie level."""
        if not 0 <= level < len(self.path):
            raise OverlayError(
                f"peer {self.peer_id} has no routing level {level} "
                f"(path length {len(self.path)})"
            )
        return self.routing_table[level]

    def responsible_for(self, key: str) -> bool:
        """Algorithm 1's responsibility test.

        True when the peer's path is a prefix of the key (full-width
        lookups) *or* the key is a proper prefix of the path (prefix
        queries that this peer's whole partition satisfies).
        """
        return key.startswith(self.path) or self.path.startswith(key)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Peer(id={self.peer_id}, path={self.path!r}, items={len(self.store)})"
