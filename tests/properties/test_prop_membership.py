"""Property-based tests: membership dynamics preserve the trie invariants.

Random join/leave sequences must keep the partition cover complete and
every stored item reachable — the invariant behind Algorithm 1's
termination/correctness argument.  A leave picks any online peer, the
network's original last replicas included (they merge into a trie
sibling), and every online peer must then find every word.  Membership
moves every replica of a partition alike, so at any replication they
stay on one version token throughout.

Tier-1 runs the churn property at 50 examples;
``--hypothesis-profile=deep`` (registered in ``tests/conftest.py``; the
``mutate-smoke`` CI job) runs it at 1000.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig
from repro.core.errors import OverlayError
from repro.overlay import trie
from repro.overlay.membership import MembershipManager
from repro.overlay.network import PGridNetwork
from repro.overlay.replication import audit_replicas
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple

ATTR = "t:v"

DEEP = settings.get_profile("deep")
CHURN_SETTINGS = (
    DEEP if settings.default is DEEP else settings(max_examples=50, deadline=None)
)


def build(words, n_peers, seed, replication=1):
    config = StoreConfig(seed=seed, replication=replication)
    triples = [Triple(f"x:{i:03d}", ATTR, w) for i, w in enumerate(words)]
    probe = PGridNetwork(1, config)
    sample = [e.key for e in probe.entry_factory.entries_for_all(triples)]
    network = PGridNetwork(n_peers, config, sample_keys=sample)
    network.insert_triples(triples)
    return network


WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"]


class TestMembershipInvariants:
    @CHURN_SETTINGS
    @given(
        st.integers(min_value=2, max_value=12),
        # None = join; an int picks the online peer that leaves.
        st.lists(st.none() | st.integers(min_value=0), max_size=12),
        st.integers(0, 3),
    )
    def test_cover_and_reachability_survive_churn(self, n_peers, actions, seed):
        network = build(WORDS, n_peers, seed)
        manager = MembershipManager(network)
        for pick in actions:
            if pick is None:
                manager.join()
            else:
                online = [p.peer_id for p in network.peers if p.online]
                try:
                    manager.leave(online[pick % len(online)])
                except OverlayError:
                    pass  # deep-sibling and last-peer leaves legitimately refuse
            trie.validate_cover([p.path for p in network.partitions])

        keys = [network.codec.attr_value_key(ATTR, word) for word in WORDS]
        for start in network.peers:
            if not start.online:
                continue
            for word, key in zip(WORDS, keys):
                entries, __ = network.router.retrieve(key, start.peer_id)
                found = {
                    e.triple.value
                    for e in entries
                    if e.kind is EntryKind.ATTR_VALUE and e.triple.attribute == ATTR
                }
                assert word in found, (word, start.peer_id)

    @CHURN_SETTINGS
    @given(
        st.integers(min_value=2, max_value=12),
        st.lists(st.none() | st.integers(min_value=0), max_size=12),
        st.integers(1, 3),
    )
    def test_replicas_stay_on_one_token(self, n_peers, actions, replication):
        network = build(WORDS, n_peers, 0, min(replication, n_peers))
        manager = MembershipManager(network)
        for pick in actions:
            if pick is None:
                manager.join()
            else:
                online = [p.peer_id for p in network.peers if p.online]
                try:
                    manager.leave(online[pick % len(online)])
                except OverlayError:
                    pass
            for partition in network.partitions:
                stores = [network.peer(pid).store for pid in partition.peer_ids]
                assert len({store.version for store in stores}) == 1
        assert audit_replicas(network).consistent

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(1, 8))
    def test_joins_grow_partitions_monotonically(self, n_peers, joins):
        network = build(WORDS, n_peers, seed=1)
        manager = MembershipManager(network)
        previous = network.n_partitions
        for __ in range(joins):
            manager.join()
            assert network.n_partitions >= previous
            previous = network.n_partitions

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=10))
    def test_entries_stay_on_matching_paths(self, joins):
        network = build(WORDS, 4, seed=2)
        manager = MembershipManager(network)
        for __ in range(joins):
            manager.join()
        for peer in network.peers:
            if not peer.online:
                continue
            for entry in peer.store:
                assert entry.key.startswith(peer.path)
