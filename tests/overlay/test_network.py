"""Unit tests for network construction and data placement."""

import pytest

from repro.core.config import StoreConfig, TrieBalancing
from repro.core.errors import OverlayError
from repro.engine import QueryEngine
from repro.overlay.incremental import PreparedDataset
from repro.overlay.network import PGridNetwork
from repro.storage.triple import Triple

from tests.conftest import (
    TEXT_ATTR,
    WORDS,
    assert_untracked_references,
    build_word_network,
    word_triples,
)
from tests.reference.routing_tables import build_routing_tables_scan


class TestConstruction:
    def test_peer_count(self):
        network = PGridNetwork(24, StoreConfig(seed=1))
        assert network.n_peers == 24

    @pytest.mark.parametrize(
        "n_peers, replication, built",
        [(24, 3, 24), (512, 3, 510), (2, 3, 3), (1, 2, 2), (7, 1, 7)],
    )
    def test_peer_count_rounds_to_whole_partitions(
        self, n_peers, replication, built
    ):
        """``k · max(1, n_peers // k)`` peers, as the docstrings say."""
        config = StoreConfig(seed=1, replication=replication)
        assert PGridNetwork(n_peers, config).n_peers == built
        assert QueryEngine.build(n_peers, (), config).network.n_peers == built

    def test_replication_splits_partitions(self):
        network = PGridNetwork(24, StoreConfig(seed=1, replication=3))
        assert network.n_partitions == 8
        assert all(len(p.peer_ids) == 3 for p in network.partitions)

    def test_replica_references_wired(self):
        network = PGridNetwork(8, StoreConfig(seed=1, replication=2))
        for partition in network.partitions:
            for peer_id in partition.peer_ids:
                peer = network.peer(peer_id)
                assert set(peer.replicas) == set(partition.peer_ids) - {peer_id}

    def test_routing_tables_cover_all_levels(self):
        network = build_word_network(n_peers=32)
        for peer in network.peers:
            assert len(peer.routing_table) == len(peer.path)
            for level, refs in enumerate(peer.routing_table):
                assert refs, f"peer {peer.peer_id} level {level} empty"

    @pytest.mark.parametrize("replication", [1, 3])
    def test_routing_and_replica_references_are_untracked_tuples(
        self, replication
    ):
        network = build_word_network(
            n_peers=48, config=StoreConfig(seed=2, replication=replication)
        )
        assert_untracked_references(network)

    def test_routing_references_point_to_complement(self):
        from repro.overlay import keys as keyspace

        network = build_word_network(n_peers=32)
        for peer in network.peers[::5]:
            for level in range(len(peer.path)):
                sibling = keyspace.sibling_prefix(peer.path, level)
                for ref in peer.references(level):
                    assert network.peer(ref).path.startswith(sibling)

    def test_uniform_balancing_option(self):
        config = StoreConfig(seed=1, balancing=TrieBalancing.UNIFORM)
        network = PGridNetwork(16, config, sample_keys=["0" * 32] * 100)
        depths = {len(p.path) for p in network.partitions}
        assert depths == {4}

    def test_rejects_zero_peers(self):
        with pytest.raises(OverlayError):
            PGridNetwork(0, StoreConfig(seed=1))

    def test_deterministic_given_seed(self):
        a = build_word_network(n_peers=16, config=StoreConfig(seed=3))
        b = build_word_network(n_peers=16, config=StoreConfig(seed=3))
        assert [p.path for p in a.partitions] == [p.path for p in b.partitions]
        assert a.peers[5].routing_table == b.peers[5].routing_table


class TestDataPlacement:
    def test_entries_placed_on_responsible_peers(self):
        network = build_word_network()
        for peer in network.peers:
            for entry in peer.store:
                assert entry.key.startswith(peer.path)

    def test_insert_returns_entry_count(self):
        network = PGridNetwork(8, StoreConfig(seed=2))
        count = network.insert_triples(word_triples())
        assert count == network.total_entries()
        assert count > len(WORDS) * 3  # base entries plus grams

    def test_total_payload_bytes_counts_every_replica(self):
        network = build_word_network(config=StoreConfig(seed=2, replication=2))
        before = network.total_payload_bytes()
        assert before == sum(
            entry.payload_size() for peer in network.peers for entry in peer.store
        )
        triple = Triple("w:9999", TEXT_ATTR, "quince")
        added = sum(
            entry.payload_size() for entry in network.entry_factory.entries_for(triple)
        )
        network.insert_triples([triple])
        assert network.total_payload_bytes() == before + 2 * added

    def test_replication_duplicates_entries(self):
        config = StoreConfig(seed=2, replication=2)
        single = PGridNetwork(8, StoreConfig(seed=2))
        single.insert_triples(word_triples())
        replicated = PGridNetwork(16, config)
        replicated.insert_triples(word_triples())
        assert replicated.total_entries() == 2 * single.total_entries()

    def test_incremental_insert(self):
        network = build_word_network()
        network.insert_triples([Triple("w:9999", TEXT_ATTR, "quince")])
        key = network.codec.attr_value_key(TEXT_ATTR, "quince")
        entries, __ = network.router.retrieve(key, 0)
        assert any(e.triple.value == "quince" for e in entries)

    def test_oid_lookup_after_insert(self):
        network = build_word_network()
        network.insert_triples([Triple("w:5001", TEXT_ATTR, "fresh")])
        entries, __ = network.router.retrieve(network.codec.oid_key("w:5001"), 1)
        assert any(e.triple.oid == "w:5001" for e in entries)

    def test_insert_reaches_every_replica(self):
        network = build_word_network(24, StoreConfig(seed=9, replication=3))
        network.insert_triples([Triple("w:5002", TEXT_ATTR, "triple")])
        key = network.codec.attr_value_key(TEXT_ATTR, "triple")
        replicas = network.partition_for(key).peer_ids
        assert len(replicas) == 3
        for peer_id in replicas:
            stored = network.peers[peer_id].store.prefix_scan(key)
            assert any(e.triple.oid == "w:5002" for e in stored), peer_id

    def test_insert_sends_no_messages(self):
        """Placement is by the oracle: a write behind the engine's back
        leaves the query-cost ledger untouched."""
        network = build_word_network()
        network.tracer.reset()
        network.insert_triples([Triple("w:5003", TEXT_ATTR, "silent")])
        assert network.tracer.message_count == 0

    def test_insert_respecting_online_skips_offline_replica(self):
        network = build_word_network(24, StoreConfig(seed=9, replication=3))
        key = network.codec.attr_value_key(TEXT_ATTR, "churned")
        down, *up = network.partition_for(key).peer_ids
        network.peers[down].online = False
        network.insert_triples(
            [Triple("w:5004", TEXT_ATTR, "churned")], respect_online=True
        )
        assert not network.peers[down].store.prefix_scan(key)
        for peer_id in up:
            assert network.peers[peer_id].store.prefix_scan(key), peer_id

    def test_load_balance_with_data_aware_trie(self):
        # Schema-gram entries of a single-attribute corpus all share a
        # handful of identical keys — an indivisible hotspot no trie split
        # can balance.  Balance is therefore asserted
        # on the divisible index families only.  Enough peers are needed
        # for the attribute-region sliver to amortize its ~attr_bits
        # forced empty-sibling leaves (a complete-trie constraint).
        config = StoreConfig(seed=7, index_schema_grams=False)
        network = build_word_network(n_peers=64, config=config)
        loads = network.load_distribution()
        mean = sum(loads) / len(loads)
        assert max(loads) <= 6 * mean

    def test_schema_gram_hotspot_is_real(self):
        # The complementary fact: with schema grams on, the single shared
        # attribute name concentrates one entry per triple on a few keys.
        network = build_word_network(n_peers=16, config=StoreConfig(seed=7))
        loads = network.load_distribution()
        mean = sum(loads) / len(loads)
        assert max(loads) > 3 * mean


class TestOracles:
    def test_partition_for_matches_paths(self):
        network = build_word_network()
        key = network.codec.attr_value_key(TEXT_ATTR, "apple")
        partition = network.partition_for(key)
        assert key.startswith(partition.path)

    def test_partitions_under_root_is_all(self):
        network = build_word_network()
        assert len(network.partitions_under("")) == network.n_partitions

    def test_partitions_under_deep_prefix_inside_partition(self):
        network = build_word_network()
        partition = network.partitions[0]
        deep = partition.path + "0" * 3
        found = network.partitions_under(deep)
        assert found == [partition]

    def test_partitions_in_range_ordered_and_covering(self):
        network = build_word_network()
        bits = network.config.key_bits
        partitions = network.partitions_in_range(0, (1 << bits) - 1)
        assert len(partitions) == network.n_partitions

    def test_random_peer_id_skips_offline(self):
        network = build_word_network(n_peers=16)
        for peer in network.peers[1:]:
            peer.online = False
        try:
            assert network.random_peer_id() == 0
        finally:
            for peer in network.peers:
                peer.online = True


class TestLedger:
    """The shared ledger follows direct ``online`` / store writes."""

    def test_offline_count_follows_direct_assignment(self):
        network = build_word_network(n_peers=16)
        assert network.ledger.offline == 0
        network.peer(3).online = False
        network.peer(3).online = False  # re-assignment is not a transition
        network.peer(5).online = False
        assert network.ledger.offline == 2
        network.peer(3).online = True
        network.peer(3).online = True
        assert network.ledger.offline == 1
        assert network.ledger.offline == sum(not p.online for p in network.peers)

    def test_token_follows_direct_store_writes(self):
        network = build_word_network(n_peers=16)
        token = network.store_version_token()
        assert network.store_version_token() == token  # reading is free
        store = network.peer(2).store
        entry = next(iter(store))
        store.add(entry)
        after_add = network.store_version_token()
        assert after_add > token
        assert store.remove(entry)
        after_remove = network.store_version_token()
        assert after_remove > after_add
        assert not store.remove(
            next(network.entry_factory.entries_for(Triple("x:0", TEXT_ATTR, "zz")))
        )
        assert store.add_bulk([]) == 0
        assert network.store_version_token() == after_remove  # no-ops

    def test_replaced_store_registers_and_keeps_registering(self):
        from repro.storage.datastore import LocalDataStore

        network = build_word_network(n_peers=16)
        peer = network.peer(1)
        entries = list(peer.store)
        token = network.store_version_token()
        fresh = LocalDataStore()
        fresh.add_bulk(entries)  # not on the ledger yet
        assert network.store_version_token() == token
        peer.store = fresh
        swapped = network.store_version_token()
        assert swapped > token
        peer.store.add(entries[0])
        assert network.store_version_token() > swapped

    def test_partition_index_matches_oracle(self):
        network = build_word_network(n_peers=24, config=StoreConfig(seed=7, replication=2))
        for peer in network.peers:
            assert peer.partition_index == network.partition_for(peer.path).index


class TestVersionTokens:
    """A store's version is the ledger's tick at its last mutation; only
    replicas with one history share one."""

    def test_a_build_leaves_each_partition_on_one_token(self):
        network = build_word_network(n_peers=24, config=StoreConfig(seed=7, replication=3))
        tokens = []
        for partition in network.partitions:
            (token,) = {network.peer(pid).store.version for pid in partition.peer_ids}
            tokens.append(token)
        assert 0 not in tokens and len(set(tokens)) == len(tokens)

    def test_every_mutation_draws_the_ledger_tick(self):
        from repro.storage.datastore import LocalDataStore

        network = build_word_network(n_peers=16)
        store = network.peer(2).store
        entry = next(iter(store))
        store.add(entry)
        assert store.version == network.ledger.tick
        assert store.remove(entry)
        assert store.version == network.ledger.tick
        alone = LocalDataStore()
        alone.add_bulk([entry, entry])
        assert alone.version == 1  # its own tick
        network.peer(3).store = alone
        assert alone.version == network.ledger.tick

    def test_replicas_written_from_one_token_share_one(self):
        network = build_word_network(n_peers=24, config=StoreConfig(seed=7, replication=3))
        entries = list(
            network.entry_factory.entries_for(Triple("x:new", TEXT_ATTR, "apricot"))
        )
        home = network.partition_for(entries[0].key)
        stores = [network.peer(pid).store for pid in home.peer_ids]
        (built,) = {store.version for store in stores}
        network.peer(home.peer_ids[2]).online = False
        __, writes = network.apply_entries(entries, respect_online=True)
        shared = stores[0].version
        assert shared > built and [s.version for s in stores] == [shared, shared, built]
        assert writes[home.index].versions == {built: shared}
        network.peer(home.peer_ids[2]).online = True
        __, writes = network.apply_entries(entries)  # a second copy each
        first, lagged = stores[0].version, stores[2].version
        assert stores[1].version == first and len({shared, built, first, lagged}) == 4
        assert writes[home.index].versions == {shared: first, built: lagged}


def _objects_per_value(values) -> dict:
    """``value -> {id(object)}`` over equal values held anywhere."""
    objects: dict = {}
    for value in values:
        objects.setdefault(value, set()).add(id(value))
    return objects


class TestSharedValues:
    """A build keeps one object per repeated gram and, within one
    sibling run, per repeated routing level — with the values, the
    draws and the RNG state of a build that shares nothing."""

    @staticmethod
    def stored_grams(network):
        return [
            entry.gram
            for peer in network.peers
            for entry in peer.store
            if entry.gram is not None
        ]

    def test_equal_grams_are_one_object(self):
        engine = QueryEngine.build(32, word_triples(), StoreConfig(seed=7))
        grams = self.stored_grams(engine.network)
        objects = _objects_per_value(grams)
        assert len(grams) > 2 * len(objects)  # grams do repeat
        assert all(len(ids) == 1 for ids in objects.values())
        # An engine-routed insert adds its grams to the same objects; the
        # value's prefix and suffix grams are all new to the store.
        engine.insert([Triple("w:new", TEXT_ATTR, "xqzapplexqz")])
        inserted = self.stored_grams(engine.network)
        assert len(inserted) > len(grams)
        assert all(len(ids) == 1 for ids in _objects_per_value(inserted).values())

    @pytest.mark.parametrize(
        "n_peers, replication, refs", [(96, 3, 1), (64, 1, 2), (90, 2, 3)]
    )
    def test_a_sibling_run_shares_equal_levels(self, n_peers, replication, refs):
        from repro.overlay import keys as keyspace

        config = StoreConfig(
            seed=5, replication=replication, refs_per_level=refs
        )
        sample = PreparedDataset.prepare(word_triples(), config).sample_keys
        network = PGridNetwork(n_peers, config, sample_keys=sample)
        runs: dict[tuple[int, str], list] = {}
        for peer in network.peers:
            for level, refs_at in enumerate(peer.routing_table):
                sibling = keyspace.sibling_prefix(peer.path, level)
                runs.setdefault((level, sibling), []).append(refs_at)
        shared = 0
        for levels in runs.values():
            objects = _objects_per_value(levels)
            assert all(len(ids) == 1 for ids in objects.values())
            shared += len(levels) - len(objects)
        assert shared > 0

        reference = PGridNetwork(n_peers, config, sample_keys=sample)
        build_routing_tables_scan(reference)
        for peer, twin in zip(network.peers, reference.peers):
            assert peer.routing_table == twin.routing_table
        assert network.rng.getstate() == reference.rng.getstate()
        assert_untracked_references(network)
