"""Failure injection — exercising routing under churn.

The paper defers a live robustness evaluation to PlanetLab but relies on
P-Grid's redundancy guarantees (replicated partitions, redundant routing
entries).  :class:`ChurnController` lets tests and benchmarks knock peers
offline deterministically and verify that queries still succeed as long as
every partition keeps one live replica.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import OverlayError
from repro.overlay.network import PGridNetwork


@dataclass
class ChurnReport:
    """What a churn episode did to the network."""

    failed_peer_ids: list[int]
    online_peers: int
    dark_partitions: list[int]

    @property
    def all_partitions_reachable(self) -> bool:
        return not self.dark_partitions


class ChurnController:
    """Deterministic peer failure / recovery driver."""

    def __init__(self, network: PGridNetwork, seed: int = 0):
        self.network = network
        self.rng = random.Random(seed)

    def fail_fraction(self, fraction: float, protect_partitions: bool = True) -> ChurnReport:
        """Take a random fraction of peers offline.

        With ``protect_partitions`` (default) no partition is allowed to go
        completely dark — mirroring the paper's operating assumption that
        "at least one peer in each partition is reachable".  Set it to
        False to study hard partition loss.
        """
        if not 0.0 <= fraction <= 1.0:
            raise OverlayError(f"fraction must be in [0, 1], got {fraction}")
        candidates = [p.peer_id for p in self.network.peers if p.online]
        self.rng.shuffle(candidates)
        target = int(len(candidates) * fraction)
        failed: list[int] = []
        for peer_id in candidates:
            if len(failed) >= target:
                break
            peer = self.network.peer(peer_id)
            if protect_partitions and self._is_last_replica(peer_id):
                continue
            peer.online = False
            failed.append(peer_id)
        return self._report(failed)

    def fail_peers(
        self, peer_ids: list[int], protect_partitions: bool = False
    ) -> ChurnReport:
        """Take specific peers offline.

        Ids are validated up front; peers that are already offline are
        skipped (a scripted scenario cannot silently double-count a
        failure).  ``protect_partitions`` mirrors :meth:`fail_fraction`:
        a peer whose partition would go completely dark is left online.
        The report's ``failed_peer_ids`` lists only the peers this call
        actually took down.
        """
        n_peers = self.network.n_peers
        for peer_id in peer_ids:
            if not 0 <= peer_id < n_peers:
                raise OverlayError(
                    f"unknown peer id {peer_id} (network has {n_peers} peers)",
                    peer_id=peer_id,
                )
        failed: list[int] = []
        for peer_id in dict.fromkeys(peer_ids):
            peer = self.network.peer(peer_id)
            if not peer.online:
                continue
            if protect_partitions and self._is_last_replica(peer_id):
                continue
            peer.online = False
            failed.append(peer_id)
        return self._report(failed)

    def recover_all(self) -> int:
        """Bring every peer back online; returns how many recovered."""
        recovered = 0
        for peer in self.network.peers:
            if not peer.online:
                peer.online = True
                recovered += 1
        return recovered

    def offline_peer_ids(self) -> list[int]:
        """Ids of every currently offline peer, ascending."""
        return [peer.peer_id for peer in self.network.peers if not peer.online]

    def _is_last_replica(self, peer_id: int) -> bool:
        peer = self.network.peer(peer_id)
        return not any(
            self.network.peer(replica).online for replica in peer.replicas
        )

    def _report(self, failed: list[int]) -> ChurnReport:
        dark = [
            partition.index
            for partition in self.network.partitions
            if not any(self.network.peer(pid).online for pid in partition.peer_ids)
        ]
        return ChurnReport(
            failed_peer_ids=failed,
            online_peers=self.network.n_peers - self.network.ledger.offline,
            dark_partitions=dark,
        )
