"""Unit tests for dynamic membership (joins, leaves, merges)."""

import random

import pytest

from repro.core.config import StoreConfig
from repro.core.errors import OverlayError
from repro.engine import QueryEngine
from repro.overlay import keys as keyspace
from repro.overlay import trie
from repro.overlay.churn import ChurnController
from repro.overlay.membership import MembershipManager
from repro.overlay.network import PGridNetwork
from repro.overlay.replication import audit_replicas
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple

from tests.conftest import (
    TEXT_ATTR,
    WORDS,
    assert_untracked_references,
    build_word_network,
    word_triples,
)


def all_words_reachable(network) -> bool:
    start = network.random_peer_id()
    for word in WORDS:
        key = network.codec.attr_value_key(TEXT_ATTR, word)
        entries, __ = network.router.retrieve(key, start)
        found = {
            e.triple.value
            for e in entries
            if e.kind is EntryKind.ATTR_VALUE and e.triple.attribute == TEXT_ATTR
        }
        if word not in found:
            return False
    return True


class TestJoin:
    def test_join_grows_network(self):
        network = build_word_network(n_peers=16)
        manager = MembershipManager(network)
        peer = manager.join()
        assert network.n_peers == 17
        assert peer.peer_id == 16

    def test_cover_stays_valid_after_joins(self):
        network = build_word_network(n_peers=8)
        manager = MembershipManager(network)
        for __ in range(10):
            manager.join()
            trie.validate_cover([p.path for p in network.partitions])

    def test_data_reachable_after_joins(self):
        network = build_word_network(n_peers=8)
        manager = MembershipManager(network)
        for __ in range(6):
            manager.join()
        assert all_words_reachable(network)

    def test_join_splits_heaviest_partition(self):
        network = build_word_network(n_peers=8)
        heaviest = max(
            network.partitions,
            key=lambda p: len(network.peer(p.peer_ids[0]).store),
        )
        old_path = heaviest.path
        MembershipManager(network).join()
        paths = [p.path for p in network.partitions]
        assert old_path not in paths
        assert old_path + "0" in paths
        assert old_path + "1" in paths

    def test_split_moves_entries_by_key(self):
        network = build_word_network(n_peers=8)
        MembershipManager(network).join()
        for peer in network.peers:
            if not peer.online:
                continue
            for entry in peer.store:
                assert entry.key.startswith(peer.path)

    def test_join_fills_under_replicated_partition_first(self):
        network = build_word_network(
            n_peers=8, config=StoreConfig(seed=7, replication=2)
        )
        # Make one partition under-replicated.
        MembershipManager(network).leave(network.partitions[0].peer_ids[0])
        partitions_before = network.n_partitions
        MembershipManager(network).join()
        assert network.n_partitions == partitions_before
        assert all(
            len(p.peer_ids) == 2 for p in network.partitions
        )

    def test_join_charges_transfer_messages(self):
        network = build_word_network(n_peers=8)
        network.tracer.reset()
        MembershipManager(network).join()
        assert network.tracer.snapshot().by_phase.get("membership", 0) >= 1

    def test_queries_work_after_join(self):
        from repro.query.operators.base import OperatorContext
        from repro.query.operators.similar import similar
        from repro.similarity.edit_distance import edit_distance

        network = build_word_network(n_peers=8)
        manager = MembershipManager(network)
        for __ in range(4):
            manager.join()
        ctx = OperatorContext(network)
        result = similar(ctx, "apple", TEXT_ATTR, 1)
        expected = sorted(w for w in WORDS if edit_distance("apple", w) <= 1)
        assert sorted(m.matched for m in result.matches) == expected


def assert_every_peer_routes_everywhere(network) -> None:
    """Every online peer's references are online and inside their level's
    complementary subtrie, and it routes to every partition."""
    bits = network.config.key_bits
    for peer in network.peers:
        if not peer.online:
            continue
        for level, refs in enumerate(peer.routing_table):
            sibling = keyspace.sibling_prefix(peer.path, level)
            for ref in refs:
                target = network.peer(ref)
                assert target.online, (peer.peer_id, level, ref)
                assert target.path.startswith(sibling), (peer.peer_id, level)
        for partition in network.partitions:
            key = partition.path.ljust(bits, "0")
            assert network.router.route(key, peer.peer_id).path == partition.path


class TestLeave:
    @pytest.mark.parametrize("seed", range(8))
    def test_merges_redirect_references_to_the_departed_peer(self, seed):
        # Seed 0: peer 2's only references at level 2 named peer 0, so
        # routing into 000 from it failed once peer 0 had left.
        network = PGridNetwork(16, StoreConfig(seed=seed))
        manager = MembershipManager(network)
        for peer_id in (0, 15):  # 0000 into 0001, then 1111 into 1110
            manager.leave(peer_id)
            assert_every_peer_routes_everywhere(network)

    def test_merge_redirects_references_to_replicas_that_left_earlier(self):
        network = PGridNetwork(16, StoreConfig(seed=3, replication=2))
        manager = MembershipManager(network)
        first, last = network.partitions[0].peer_ids
        manager.leave(first)  # its partition survives on ``last``
        manager.leave(last)  # and now merges into its sibling
        assert_every_peer_routes_everywhere(network)

    def test_replica_leave_keeps_partition(self):
        network = build_word_network(
            n_peers=16, config=StoreConfig(seed=7, replication=2)
        )
        partition = network.partitions[0]
        MembershipManager(network).leave(partition.peer_ids[0])
        assert len(network.partitions[0].peer_ids) == 1
        assert all_words_reachable(network)

    def test_leaf_sibling_merge(self):
        network = build_word_network(n_peers=8)
        manager = MembershipManager(network)
        # Split once so a fresh leaf pair exists, then remove one side.
        new_peer = manager.join()
        partitions_before = network.n_partitions
        manager.leave(new_peer.peer_id)
        assert network.n_partitions == partitions_before - 2 + 1
        trie.validate_cover([p.path for p in network.partitions])
        assert all_words_reachable(network)

    def test_deep_sibling_leave_rejected(self):
        network = build_word_network(n_peers=8)
        # Find a partition whose sibling subtree is deep.
        target = None
        for partition in network.partitions:
            path = partition.path
            sibling = path[:-1] + ("1" if path[-1] == "0" else "0")
            siblings = [
                p for p in network.partitions if p.path.startswith(sibling)
            ]
            if len(siblings) > 1:
                target = partition
                break
        if target is None:
            pytest.skip("balanced trie has no deep siblings at this size")
        with pytest.raises(OverlayError):
            MembershipManager(network).leave(target.peer_ids[0])

    def test_double_leave_rejected(self):
        network = build_word_network(
            n_peers=16, config=StoreConfig(seed=7, replication=2)
        )
        manager = MembershipManager(network)
        peer_id = network.partitions[0].peer_ids[0]
        manager.leave(peer_id)
        with pytest.raises(OverlayError):
            manager.leave(peer_id)

    def test_a_departed_replica_stays_departed(self):
        # It used to come back: recover() counted it, it read online,
        # and 31 of 200 initiator draws picked it.
        engine = QueryEngine.build(
            8, word_triples(), StoreConfig(seed=7, replication=2)
        )
        network = engine.network
        gone = network.partitions[0].peer_ids[0]
        MembershipManager(network).leave(gone)
        assert engine.recover().recovered_peers == 0
        assert not network.peer(gone).online
        rng = random.Random(1)
        assert gone not in {network.random_peer_id(rng) for __ in range(200)}
        assert all_words_reachable(network)

    def test_a_merged_away_peer_stays_departed(self):
        network = build_word_network(n_peers=8)
        manager = MembershipManager(network)
        new_peer = manager.join()
        manager.leave(new_peer.peer_id)
        churn = ChurnController(network)
        churn.fail_peers([0])
        assert churn.recover_all() == 1
        assert churn.offline_peer_ids() == [new_peer.peer_id]
        assert all_words_reachable(network)


class TestReplicaTokens:
    """Membership leaves replicas holding one content on one version
    token, so the audit passes them in O(1) and their memos stay shared."""

    @staticmethod
    def partitions_on_one_token(network) -> bool:
        return all(
            len({network.peer(pid).store.version for pid in p.peer_ids}) == 1
            for p in network.partitions
            if all(network.peer(pid).online for pid in p.peer_ids)
        )

    def test_joins_and_a_merge_keep_one_token_per_partition(self):
        network = build_word_network(
            n_peers=8, config=StoreConfig(seed=7, replication=2)
        )
        manager = MembershipManager(network)
        joined = manager.join()  # splits: the incumbents share one store
        assert self.partitions_on_one_token(network)
        split = network.partitions[joined.partition_index - 1]
        assert len(split.peer_ids) == 2
        second = manager.join()  # the newcomer's partition takes a replica
        assert second.path == joined.path
        assert self.partitions_on_one_token(network)
        manager.leave(joined.peer_id)
        manager.leave(second.peer_id)  # the last one: its sibling absorbs
        absorber = network.partition_for(split.path[:-1])
        assert absorber.peer_ids == split.peer_ids
        assert self.partitions_on_one_token(network)
        assert audit_replicas(network).consistent

    def test_a_joining_replica_takes_its_source_token(self):
        network = build_word_network(
            n_peers=8, config=StoreConfig(seed=7, replication=2)
        )
        manager = MembershipManager(network)
        partition = network.partitions[0]
        manager.leave(partition.peer_ids[0])
        source = network.peer(partition.peer_ids[1]).store
        joined = manager.join()
        assert joined.store.version == source.version
        assert list(joined.store) == list(source)


class TestSplitMigration:
    def test_a_split_moves_every_copy(self):
        """A triple stored twice reaches the newcomer twice: the
        incumbents' one content hands over its list, copies included."""
        engine = QueryEngine.build(
            8, word_triples(), StoreConfig(seed=7, replication=2)
        )
        network = engine.network
        twice = Triple("x:1", TEXT_ATTR, "apricot")
        engine.insert([twice])
        engine.insert([twice])
        entry = next(iter(network.entry_factory.entries_for(twice)))
        newcomer = MembershipManager(network)._split_partition(
            network.partition_for(entry.key)
        )
        assert network.partition_for(entry.key).peer_ids == (newcomer.peer_id,)
        assert newcomer.store.lookup(entry.key).count(entry) == 2
        assert audit_replicas(network).consistent

    def test_diverged_incumbents_hand_over_their_union(self):
        """Incumbents on two contents give the newcomer the multiset
        union of what leaves them, as a repair would have made it."""
        network = build_word_network(
            n_peers=8, config=StoreConfig(seed=7, replication=2)
        )
        entry = next(
            iter(network.entry_factory.entries_for(Triple("x:2", TEXT_ATTR, "zz")))
        )
        partition = network.partition_for(entry.key)
        first, second = (network.peer(pid).store for pid in partition.peer_ids)
        first.add_bulk([entry, entry])
        second.add(entry)
        newcomer = MembershipManager(network)._split_partition(partition)
        assert network.partition_for(entry.key).peer_ids == (newcomer.peer_id,)
        assert newcomer.store.lookup(entry.key).count(entry) == 2


class TestUntrackedReferences:
    """Membership installs tuples, as the constructor does."""

    def test_splitting_join(self):
        network = build_word_network(n_peers=8)
        partitions = network.n_partitions
        MembershipManager(network).join()
        assert network.n_partitions == partitions + 1
        assert_untracked_references(network)

    def test_replica_join(self):
        network = build_word_network(
            n_peers=8, config=StoreConfig(seed=7, replication=2)
        )
        manager = MembershipManager(network)
        manager.leave(network.partitions[0].peer_ids[0])
        partitions = network.n_partitions
        manager.join()
        assert network.n_partitions == partitions
        assert_untracked_references(network)

    def test_merging_leave(self):
        network = build_word_network(n_peers=8)
        manager = MembershipManager(network)
        joined = manager.join()
        partitions = network.n_partitions
        manager.leave(joined.peer_id)
        assert network.n_partitions == partitions - 1
        assert_untracked_references(network)


class TestUntouchedTables:
    """Membership replaces the levels it changes and no others: routing
    levels are tuples shared across peers, so a change made in place
    would reach every peer that shares the level."""

    @staticmethod
    def snapshot(network) -> dict[int, list[tuple[int, ...]]]:
        return {peer.peer_id: list(peer.routing_table) for peer in network.peers}

    @staticmethod
    def assert_unchanged(network, before, peer_ids) -> None:
        for peer_id in peer_ids:
            table = network.peer(peer_id).routing_table
            assert table == before[peer_id], peer_id
            assert all(a is b for a, b in zip(table, before[peer_id]))

    def test_merging_leave_changes_only_tables_naming_the_departed(self):
        network = build_word_network(n_peers=24)
        # A one-peer partition whose trie sibling is a single leaf.
        leaving, absorber = next(
            (partition, siblings[0])
            for partition in network.partitions
            for siblings in [
                network.partitions_under(
                    keyspace.sibling_prefix(partition.path, len(partition.path) - 1)
                )
            ]
            if len(siblings) == 1
        )
        departed = set(leaving.peer_ids)
        absorbers = set(absorber.peer_ids)
        before = self.snapshot(network)
        MembershipManager(network).leave(leaving.peer_ids[0])
        named = set()
        for peer in network.peers:
            if peer.peer_id in departed:
                continue
            old = before[peer.peer_id]
            if peer.peer_id in absorbers:
                old = old[:-1]  # the merge deletes the deepest level
            for level, refs in enumerate(old):
                if departed.isdisjoint(refs):
                    assert peer.routing_table[level] is refs
                else:
                    named.add(peer.peer_id)
                    assert departed.isdisjoint(peer.routing_table[level])
        assert named
        self.assert_unchanged(
            network, before, set(before) - named - absorbers - departed
        )

    def test_join_changes_only_the_split_partitions_tables(self):
        network = build_word_network(
            n_peers=24, config=StoreConfig(seed=7, replication=2)
        )
        manager = MembershipManager(network)
        before = self.snapshot(network)
        joined = manager.join()  # splits the heaviest partition
        split = {p.peer_id for p in network.peers if p.path[:-1] == joined.path[:-1]}
        assert len(split) == 3
        self.assert_unchanged(network, before, set(before) - split)
        manager.leave(network.partitions[0].peer_ids[0])
        before = self.snapshot(network)
        refilled = manager.join()  # fills the under-replicated partition
        assert refilled.peer_id not in before
        self.assert_unchanged(network, before, before)


class TestChurnCycle:
    def test_join_leave_cycle_preserves_data(self):
        network = build_word_network(n_peers=8)
        manager = MembershipManager(network)
        joined = [manager.join() for __ in range(5)]
        for peer in reversed(joined):
            try:
                manager.leave(peer.peer_id)
            except OverlayError:
                pass  # deep-sibling cases stay joined
        trie.validate_cover([p.path for p in network.partitions])
        assert all_words_reachable(network)


class TestMutationToken:
    """The token must move on *every* membership change.

    The old token — the sum of all store versions — did not: a replica
    leaving writes no store, and a store at version 2 replaced by two
    fresh stores at version 1 keeps the sum, while partition indices
    are renumbered underneath everything keyed by them.
    """

    @staticmethod
    def members_indexed(network) -> bool:
        return all(
            network.peer(peer_id).partition_index == partition.index
            for partition in network.partitions
            for peer_id in partition.peer_ids
        )

    def test_token_strictly_increases_across_joins_and_leaves(self):
        network = build_word_network(
            n_peers=8, config=StoreConfig(seed=7, replication=2)
        )
        manager = MembershipManager(network)
        readings = [network.store_version_token()]
        joined = manager.join()  # splits the heaviest partition
        readings.append(network.store_version_token())
        manager.leave(network.partitions[0].peer_ids[0])  # survivors remain
        readings.append(network.store_version_token())
        manager.join()  # refills the under-replicated partition
        readings.append(network.store_version_token())
        manager.leave(joined.peer_id)  # last replica: merges into its sibling
        readings.append(network.store_version_token())
        assert readings == sorted(set(readings))

    def test_split_of_a_rewritten_store_moves_the_token(self):
        network = build_word_network(n_peers=8)
        heaviest = max(
            network.partitions,
            key=lambda p: len(network.peer(p.peer_ids[0]).store),
        )
        store = network.peer(heaviest.peer_ids[0]).store
        store.add(next(iter(store)))  # version 2: the old sum's blind spot
        token = network.store_version_token()
        MembershipManager(network).join()
        assert network.store_version_token() > token

    def test_members_carry_their_partition_index(self):
        network = build_word_network(
            n_peers=8, config=StoreConfig(seed=7, replication=2)
        )
        manager = MembershipManager(network)
        assert self.members_indexed(network)
        joined = [manager.join() for __ in range(5)]
        assert self.members_indexed(network)
        for peer in reversed(joined):
            try:
                manager.leave(peer.peer_id)
            except OverlayError:
                pass  # deep-sibling cases stay joined
            assert self.members_indexed(network)
        assert network.ledger.offline == sum(not p.online for p in network.peers)
