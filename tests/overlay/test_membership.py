"""Unit tests for dynamic membership (joins, leaves, merges)."""

import pytest

from repro.core.config import StoreConfig
from repro.core.errors import OverlayError
from repro.overlay import trie
from repro.overlay.membership import MembershipManager
from repro.storage.indexing import EntryKind

from tests.conftest import TEXT_ATTR, WORDS, build_word_network


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
        assert network.tracer.counts_by_phase["membership"] >= 1

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


class TestLeave:
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
