"""Reference: loading a network the way ``QueryEngine.build`` used to.

Two derivations of every index entry — one (then through a throw-away
one-peer probe network's factory) only to collect the keys the data-aware
trie is balanced on, and one to fill the real network — and a per-entry
bisection into a ``partition -> entries`` grouping, every replica then
taking its partition's entries in generation order with one ``add_bulk``.
Keys come from :class:`tests.reference.key_codec.ReferenceKeyCodec`, so
nothing is remembered between the two derivations either.

``QueryEngine.build`` derives once, sorts, and places by one merge walk;
trie, routing tables, every store's entries in order, every store's
version and the ledger's tick must equal this loader's.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.config import StoreConfig
from repro.overlay import trie
from repro.overlay.network import PGridNetwork
from repro.storage.indexing import EntryFactory, IndexEntry
from repro.storage.triple import Triple

from tests.reference.key_codec import ReferenceKeyCodec


def load_by_probe(
    n_peers: int, triples: Sequence[Triple], config: StoreConfig
) -> PGridNetwork:
    """The network ``triples`` yield under probe + per-triple insertion."""
    factory = EntryFactory(config, ReferenceKeyCodec(config))
    sample_keys = [entry.key for entry in factory.entries_for_all(triples)]
    network = PGridNetwork(n_peers, config, sample_keys=sample_keys)
    per_partition: dict[int, list[IndexEntry]] = {}
    for entry in factory.entries_for_all(triples):
        index = trie.find_responsible(network._paths, entry.key)
        per_partition.setdefault(index, []).append(entry)
    for index, entries in per_partition.items():
        for peer_id in network.partitions[index].peer_ids:
            network.peers[peer_id].store.add_bulk(entries)
    return network
