"""``QueryEngine.build`` loads what probe + per-triple insertion loaded,
and derives each thing once doing it."""

import gc
from collections import Counter
from unittest import mock

import pytest

from repro.core.config import StoreConfig
from repro.datasets.bible import bible_triples
from repro.engine import QueryEngine
from repro.overlay.hashing import OrderPreservingStringHash
from repro.storage.indexing import EntryFactory, EntryKind

from tests.conftest import word_triples
from tests.reference.bulk_load import load_by_probe


def corpus():
    """Strings and numbers, repeated values, several attributes."""
    return bible_triples(250, seed=4) + word_triples()


class TestBuildEqualsProbeAndInsert:
    @pytest.mark.parametrize("replication", [1, 3])
    @pytest.mark.parametrize("index_values", [False, True])
    @pytest.mark.parametrize("index_schema_grams", [False, True])
    def test_same_network(self, replication, index_values, index_schema_grams):
        config = StoreConfig(
            seed=5,
            replication=replication,
            index_values=index_values,
            index_schema_grams=index_schema_grams,
        )
        triples = corpus()
        built = QueryEngine.build(96, triples, config).network
        reference = load_by_probe(96, triples, config)
        assert built._paths == reference._paths
        assert built.ledger.tick == reference.ledger.tick
        for peer, expected in zip(built.peers, reference.peers, strict=True):
            assert peer.routing_table == expected.routing_table
            assert peer.replicas == expected.replicas
            assert list(peer.store) == list(expected.store)
            assert peer.store.version == expected.store.version

    def test_empty_dataset_builds_a_uniform_empty_network(self):
        config = StoreConfig(seed=5)
        built = QueryEngine.build(8, (), config).network
        reference = load_by_probe(8, (), config)
        assert built._paths == reference._paths
        assert built.total_entries() == 0
        assert built.ledger.tick == reference.ledger.tick == 0


class TestBuildDerivesOnce:
    def test_one_derivation_per_triple_one_hash_per_gram(self):
        # A corpus no other test builds, and no dataset held by a network
        # that is garbage but not yet collected: the first build derives.
        gc.collect()
        config = StoreConfig(seed=5)
        triples = bible_triples(250, seed=41) + word_triples()
        hashed: Counter[tuple[int, str]] = Counter()
        key_value = OrderPreservingStringHash.key_value

        def counting_key_value(self, text):
            hashed[self.bits, text] += 1
            return key_value(self, text)

        derives = mock.patch.object(
            EntryFactory,
            "entries_for",
            autospec=True,
            side_effect=EntryFactory.entries_for,
        )
        hashes = mock.patch.object(
            OrderPreservingStringHash, "key_value", counting_key_value
        )
        with derives as entries_for, hashes:
            engine = QueryEngine.build(64, triples, config)
        assert entries_for.call_count == len(triples)
        # One hash object per key width, so (width, string) names one hash.
        short = {key: n for key, n in hashed.items() if len(key[1]) <= config.q}
        assert short and max(short.values()) == 1
        # The network keeps the codec that derived the entries: a gram of
        # the corpus is not hashed again by a later write or query.
        gram = next(
            text
            for bits, text in short
            if bits == config.value_bits and len(text) == config.q
        )
        with hashes:
            engine.network.codec.attr_value_key("word:text", gram)
        assert hashed[config.value_bits, gram] == 1
        # While it lives, a build over equal triples derives no entry and
        # hashes no gram: it shares the first build's dataset.
        hashed.clear()
        with derives as entries_for, hashes:
            QueryEngine.build(32, list(triples), config)
        assert entries_for.call_count == 0
        assert not hashed

    def test_entries_of_one_gram_share_one_key_string(self):
        network = QueryEngine.build(64, corpus(), StoreConfig(seed=5)).network
        keys: dict[str, str] = {}
        grams = 0
        for peer in network.peers:
            for entry in peer.store:
                if entry.kind is EntryKind.INSTANCE_GRAM:
                    grams += 1
                    assert keys.setdefault(entry.key, entry.key) is entry.key
        assert grams > 2 * len(keys)
