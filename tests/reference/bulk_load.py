"""Reference: loading a network the way ``QueryEngine.build`` used to.

Two derivations of every index entry — one (then through a throw-away
one-peer probe network's factory) only to collect the keys the data-aware
trie is balanced on, and one to fill the real network — and a per-entry
bisection into a ``partition -> entries`` grouping, every replica then
taking its partition's entries in generation order with one ``add_bulk``
(partitions in trie order) and the first replica's version token.
Keys come from :class:`tests.reference.key_codec.ReferenceKeyCodec`, so
nothing is remembered between the two derivations either.

Each build step keeps its earlier form here as a twin:

* :func:`reference_entries` derives a triple's entries one ``yield`` at a
  time, each through ``IndexEntry``'s keyword constructor and each gram's
  key through ``codec.attr_value_key``;
* :func:`reference_paths` counts a trie prefix's sample keys by turning
  the prefix into an integer interval and back into two keys;
* :func:`load_by_probe` places by per-entry bisection.

``QueryEngine.build`` derives once (slot-filled entries, one list per
triple), sorts, counts by padding the prefix, and places one bisected
run per partition; trie, routing tables, every store's entries in order,
every store's version and the ledger's tick must equal this loader's.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence
from unittest import mock

from repro.core.config import StoreConfig
from repro.core.errors import OverlayError
from repro.overlay import keys as keyspace
from repro.overlay import trie
from repro.overlay.network import PGridNetwork
from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.qgrams import qgram_tuples
from repro.storage.triple import Triple, is_numeric

from tests.reference.key_codec import ReferenceKeyCodec


def reference_entries(
    triples: Iterable[Triple], config: StoreConfig, codec
) -> Iterator[IndexEntry]:
    """Every index entry of ``triples``, in ``EntryFactory``'s order."""
    for triple in triples:
        yield IndexEntry(codec.oid_key(triple.oid), EntryKind.OID, triple)
        yield IndexEntry(
            codec.attr_value_key(triple.attribute, triple.value),
            EntryKind.ATTR_VALUE,
            triple,
        )
        if config.index_values:
            yield IndexEntry(codec.value_key(triple.value), EntryKind.VALUE, triple)
        if config.index_instance_grams and not is_numeric(triple.value):
            value = str(triple.value)
            for gram, position in qgram_tuples(value, config.q):
                yield IndexEntry(
                    codec.attr_value_key(triple.attribute, gram),
                    EntryKind.INSTANCE_GRAM,
                    triple,
                    gram=gram,
                    position=position,
                    source_length=len(value),
                )
        if config.index_schema_grams:
            for gram, position in qgram_tuples(triple.attribute, config.q):
                yield IndexEntry(
                    codec.schema_gram_key(gram),
                    EntryKind.SCHEMA_GRAM,
                    triple,
                    gram=gram,
                    position=position,
                    source_length=len(triple.attribute),
                )


def reference_paths(
    n_partitions: int,
    sample_keys: Sequence[str],
    key_bits: int,
) -> list[str]:
    """``trie.data_aware_paths``, counting through integer intervals."""
    if n_partitions < 1:
        raise OverlayError(f"need at least one partition, got {n_partitions}")
    if n_partitions > (1 << key_bits):
        raise OverlayError(
            f"{n_partitions} partitions cannot tile a {key_bits}-bit key space"
        )
    if not sample_keys:
        return trie.uniform_paths(n_partitions)
    sorted_keys = sorted(sample_keys)
    paths: list[str] = []

    def count_in(prefix: str) -> int:
        lo_int, hi_int = keyspace.prefix_interval(prefix, key_bits)
        lo = bisect.bisect_left(sorted_keys, keyspace.int_to_key(lo_int, key_bits))
        hi = bisect.bisect_right(sorted_keys, keyspace.int_to_key(hi_int, key_bits))
        return hi - lo

    def split(prefix: str, count: int) -> None:
        if count == 1:
            paths.append(prefix)
            return
        left_data = count_in(prefix + "0")
        right_data = count_in(prefix + "1")
        total = left_data + right_data
        if total == 0:
            left = (count + 1) // 2
        else:
            left = max(1, min(count - 1, round(count * left_data / total)))
        side_capacity = 1 << (key_bits - len(prefix) - 1)
        left = min(max(left, count - side_capacity), side_capacity)
        split(prefix + "0", left)
        split(prefix + "1", count - left)

    split("", n_partitions)
    return paths


def load_by_probe(
    n_peers: int, triples: Sequence[Triple], config: StoreConfig
) -> PGridNetwork:
    """The network ``triples`` yield under probe + per-triple insertion."""
    codec = ReferenceKeyCodec(config)
    sample_keys = [
        entry.key for entry in reference_entries(triples, config, codec)
    ]
    with mock.patch.object(trie, "data_aware_paths", reference_paths):
        network = PGridNetwork(n_peers, config, sample_keys=sample_keys)
    per_partition: dict[int, list[IndexEntry]] = {}
    for entry in reference_entries(triples, config, codec):
        index = trie.find_responsible(network._paths, entry.key)
        per_partition.setdefault(index, []).append(entry)
    for index, entries in sorted(per_partition.items()):
        stores = [
            network.peers[peer_id].store
            for peer_id in network.partitions[index].peer_ids
        ]
        for store in stores:
            store.add_bulk(entries)
        for store in stores[1:]:  # empty before, equal after: one token
            assert store.adopt(stores[0])
    return network
