"""Networks built over equal triples share one prepared dataset.

``PreparedDataset.prepare`` hands back the dataset a live network was
built from: the networks then share its immutable index entries and its
key codec, and nothing else — each store holds its own list, so a write
or churn on one network leaves the others as they were, and a network
built later equals one built from a fresh derivation.  A dataset lives
exactly as long as some network built from it.
"""

import gc
import weakref

from repro.core.config import StoreConfig
from repro.datasets.bible import bible_triples
from repro.engine import QueryEngine
from repro.overlay.incremental import PreparedDataset
from repro.storage.triple import Triple

from tests.conftest import LEN_ATTR, TEXT_ATTR, word_triples
from tests.reference.bulk_load import load_by_probe
from tests.reference.routing_tables import assert_networks_equivalent

CONFIG = StoreConfig(seed=13, replication=2)


def stores(network):
    return [list(peer.store) for peer in network.peers]


def answers(engine):
    """Match sets of a few reads (RNG-independent)."""
    return [
        sorted((m.oid, m.distance) for m in engine.similar(s, TEXT_ATTR, d).matches)
        for s, d in (("apple", 1), ("grape", 2), ("berry", 1))
    ] + [
        sorted(
            (m.oid, m.distance)
            for m in engine.top_n_string(TEXT_ATTR, "overlay", 4).matches
        ),
        sorted(m.oid for m in engine.select(TEXT_ATTR, "cherry")),
    ]


class TestSharing:
    def test_equal_triples_and_configs_share_entries_and_codec(self):
        a = QueryEngine.build(32, word_triples(), CONFIG, "qgrams")
        b = QueryEngine.build(32, word_triples(), CONFIG, "naive")
        assert a.network.dataset is b.network.dataset
        assert a.network.codec is b.network.codec
        for peer_a, peer_b in zip(a.network.peers, b.network.peers, strict=True):
            entries_a, entries_b = list(peer_a.store), list(peer_b.store)
            assert len(entries_a) == len(entries_b)
            assert all(x is y for x, y in zip(entries_a, entries_b))
            assert peer_a.store._content is not peer_b.store._content

    def test_another_config_or_value_type_derives_anew(self):
        triples = word_triples()
        dataset = PreparedDataset.prepare(triples, CONFIG)
        assert PreparedDataset.prepare(triples, CONFIG.replace(q=2)) is not dataset
        # ``5 == 5.0``, yet a network hands back the triples it was given.
        floats = [
            Triple(t.oid, t.attribute, float(t.value)) if t.attribute == LEN_ATTR
            else t
            for t in triples
        ]
        assert floats == triples
        as_floats = PreparedDataset.prepare(floats, CONFIG)
        assert as_floats is not dataset
        assert {type(e.triple.value) for e in as_floats.entries} == {str, float}

    def test_writes_and_churn_through_one_engine_leave_the_other_alone(self):
        a = QueryEngine.build(32, word_triples(), CONFIG)
        b = QueryEngine.build(32, word_triples(), CONFIG)
        b_stores, b_answers = stores(b.network), answers(b)
        added = [
            Triple("w:9000", TEXT_ATTR, "applesauce"),
            Triple("w:0001", LEN_ATTR, 9),
        ]
        assert a.insert(added) > 0
        assert a.delete([Triple("w:0008", TEXT_ATTR, "grape")]) > 0
        a.fail_fraction(0.25)
        a.insert([Triple("w:9001", TEXT_ATTR, "grapefruit")], respect_online=True)
        a.recover(charge_messages=True)
        assert stores(a.network) != b_stores
        assert stores(b.network) == b_stores
        assert answers(b) == b_answers

    def test_a_build_after_writes_equals_a_fresh_derivation(self):
        a = QueryEngine.build(32, word_triples(), CONFIG)
        a.insert([Triple("w:9000", TEXT_ATTR, "applesauce")])
        a.delete([Triple("w:0008", TEXT_ATTR, "grape")])
        later = QueryEngine.build(48, word_triples(), CONFIG).network
        assert later.dataset is a.network.dataset
        fresh = load_by_probe(48, word_triples(), CONFIG)
        assert_networks_equivalent(later, fresh)
        assert stores(later) == stores(fresh)


class TestLifetime:
    def test_released_with_its_last_network(self):
        gc.collect()
        triples = bible_triples(40, seed=71)
        first = QueryEngine.build(16, triples, CONFIG)
        dataset = weakref.ref(first.network.dataset)
        second = QueryEngine.build(16, triples, CONFIG)
        assert second.network.dataset is dataset()
        del first
        gc.collect()
        assert dataset() is not None
        del second
        gc.collect()
        assert dataset() is None

    def test_a_one_shot_iterator_builds_the_whole_corpus(self):
        gc.collect()
        triples = bible_triples(40, seed=72)
        built = QueryEngine.build(24, iter(triples), CONFIG).network
        fresh = load_by_probe(24, triples, CONFIG)
        assert_networks_equivalent(built, fresh)
        assert stores(built) == stores(fresh)
        assert PreparedDataset.prepare(triples, CONFIG) is built.dataset
