"""Building networks from a dataset prepared once.

Loading a network is mostly key hashing: the vertical layout turns every
triple into an oid entry, an ``A#v`` entry and one entry per q-gram.
:class:`PreparedDataset` does that per-*dataset* work once per process —
derive the entries, sort them by key — and every network over the
dataset, whether the ones :meth:`repro.engine.QueryEngine.build` wants
(one per strategy arm, say) or the cells of a sweep, is then a trie
balanced on those keys plus one bisected run of the sorted entries per
partition (:meth:`~repro.overlay.network.PGridNetwork.place_entries`).

``tests/overlay/test_incremental.py`` holds every built network equal —
trie, peers, replicas, routing tables, stores — to the materializing
reference construction in ``tests/reference/routing_tables.py``.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.config import StoreConfig
from repro.overlay.hashing import CompositeKeyCodec
from repro.overlay.network import PGridNetwork
from repro.storage.indexing import EntryFactory, IndexEntry
from repro.storage.triple import Triple


@dataclass
class PreparedDataset:
    """A dataset's index entries, derived once per process and placed per
    network.

    ``entries`` is sorted by key, ties in generation order — the order a
    store's deferred stable sort gives the same entries inserted triple by
    triple, so a placed network equals an
    :meth:`~repro.overlay.network.PGridNetwork.insert_triples`-loaded one
    entry for entry.  Their keys (:attr:`sample_keys`) are the data-aware
    trie sample.  ``codec`` derived the keys and is handed to every
    network built, which so starts with its memo warm.

    :meth:`prepare` hands back the dataset already prepared for equal
    triples and an equal config while that dataset is alive: the
    networks built from it share the entry objects (immutable, as the
    replicas of one partition already share them) and the codec (a pure
    memo), while each store still holds its own list and each network
    its own trie, peers and routing tables.  Every network keeps its
    dataset in :attr:`~repro.overlay.network.PGridNetwork.dataset`, so a
    dataset lives exactly as long as some network built from it — there
    is no size or eviction setting.
    """

    config: StoreConfig
    entries: list[IndexEntry]
    codec: CompositeKeyCodec

    @classmethod
    def prepare(
        cls, triples: Iterable[Triple], config: StoreConfig
    ) -> "PreparedDataset":
        """The dataset of ``triples`` under ``config``: the one a live
        network was built from, or all index entries derived and
        key-sorted now."""
        triples = tuple(triples)
        # Value types join the key: ``1 == 1.0``, yet a network must hand
        # back the triples it was given.
        key = (config, triples, tuple(type(t.value) for t in triples))
        prepared = _PREPARED.get(key)
        if prepared is None:
            codec = CompositeKeyCodec(config)
            entries = sorted(
                EntryFactory(config, codec).entries_for_all(triples),
                key=lambda entry: entry.key,
            )
            prepared = _PREPARED[key] = cls(config, entries, codec)
        return prepared

    @property
    def sample_keys(self) -> list[str]:
        """The entries' keys, in order — the data-aware trie sample."""
        return [entry.key for entry in self.entries]

    def build_network(self, n_peers: int) -> PGridNetwork:
        """A load-balanced network of ``n_peers`` holding this dataset."""
        network = PGridNetwork(
            n_peers,
            self.config,
            sample_keys=self.sample_keys,
            codec=self.codec,
        )
        network.place_entries(self.entries)
        network.dataset = self
        return network


#: ``(config, triples, their value types) -> dataset`` of every live
#: dataset (see :meth:`PreparedDataset.prepare`).
_PREPARED: weakref.WeakValueDictionary[tuple, PreparedDataset] = (
    weakref.WeakValueDictionary()
)
