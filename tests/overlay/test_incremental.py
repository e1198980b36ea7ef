"""``PreparedDataset.build_network`` == the reference construction.

A network built from a prepared dataset (span-sampled routing tables,
bisected placement), in any peer-count order, must be structurally
indistinguishable from one built from scratch with the reference scan
construction.  These tests pin that contract directly and via random
peer-count schedules.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig, TrieBalancing
from repro.core.errors import OverlayError
from repro.datasets.bible import bible_triples
from repro.overlay.incremental import PreparedDataset
from repro.overlay.network import PGridNetwork

from tests.conftest import word_triples
from tests.reference.routing_tables import (
    assert_networks_equivalent,
    build_routing_tables_scan,
    partition_range_scan,
    scratch_network,
)


def prepared_words(config):
    """The shared word collection, prepared under ``config``."""
    return PreparedDataset.prepare(word_triples(), config)


class TestRoutingConstructionEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        n_peers=st.integers(min_value=1, max_value=80),
        seed=st.integers(0, 10),
        replication=st.integers(1, 3),
        refs=st.integers(1, 3),
    )
    def test_span_sampling_matches_scan_reference(
        self, n_peers, seed, replication, refs
    ):
        """Fast construction consumes the RNG draw-for-draw like the scan,
        and leaves it in the same state: membership draws from it next."""
        config = StoreConfig(
            seed=seed, replication=replication, refs_per_level=refs
        )
        sample = prepared_words(config).sample_keys
        fast = PGridNetwork(n_peers, config, sample_keys=sample)
        reference = PGridNetwork(n_peers, config, sample_keys=sample)
        build_routing_tables_scan(reference)
        for peer_fast, peer_ref in zip(fast.peers, reference.peers):
            assert peer_fast.routing_table == peer_ref.routing_table
        assert fast.rng.getstate() == reference.rng.getstate()

    @settings(max_examples=30, deadline=None)
    @given(
        n_peers=st.integers(min_value=1, max_value=60),
        seed=st.integers(0, 5),
        uniform=st.booleans(),
        prefixes=st.lists(
            st.text(alphabet="01", min_size=0, max_size=12), max_size=8
        ),
    )
    def test_partition_span_matches_scan(self, n_peers, seed, uniform, prefixes):
        """The bisected span and the startswith scan agree on any prefix."""
        balancing = TrieBalancing.UNIFORM if uniform else TrieBalancing.DATA_AWARE
        config = StoreConfig(seed=seed, balancing=balancing)
        sample = prepared_words(config).sample_keys
        network = PGridNetwork(n_peers, config, sample_keys=sample)
        probes = list(prefixes) + ["", "0", "1"] + network._paths[:3]
        for prefix in probes:
            assert (
                network._partition_range(prefix)
                == partition_range_scan(network, prefix)
            ), prefix


class TestBuildNetwork:
    @settings(max_examples=20, deadline=None)
    @given(
        schedule=st.lists(
            st.integers(min_value=1, max_value=64), min_size=1, max_size=5
        ),
        seed=st.integers(0, 5),
        replication=st.integers(1, 2),
    )
    def test_random_schedule_equals_scratch(self, schedule, seed, replication):
        """Any peer-count schedule over one dataset yields scratch-identical
        networks: no build leaves state that changes the next."""
        config = StoreConfig(seed=seed, replication=replication)
        prepared = prepared_words(config)
        for n_peers in schedule:
            assert_networks_equivalent(
                prepared.build_network(n_peers),
                scratch_network(prepared, n_peers),
            )

    def test_sweep_schedule_equals_scratch(self):
        """A sweep's cells, on a corpus large enough for deep tries."""
        prepared = PreparedDataset.prepare(
            bible_triples(400, seed=2), StoreConfig(seed=1, replication=2)
        )
        for n_peers in (16, 64, 256):
            assert_networks_equivalent(
                prepared.build_network(n_peers),
                scratch_network(prepared, n_peers),
            )

    def test_places_every_entry_on_every_replica(self):
        prepared = prepared_words(StoreConfig(seed=3, replication=2))
        network = prepared.build_network(24)
        assert network.total_entries() == 2 * len(prepared.entries)
        for peer in network.peers:
            assert all(e.key.startswith(peer.path) for e in peer.store)

    def test_builds_share_the_dataset_and_codec(self):
        """Every network of one dataset keeps it and its key codec, so the
        codec's memo serves every cell of a sweep."""
        prepared = prepared_words(StoreConfig(seed=4))
        small, large = prepared.build_network(8), prepared.build_network(40)
        assert small.dataset is prepared and large.dataset is prepared
        assert small.codec is prepared.codec and large.codec is prepared.codec

    def test_build_leaves_the_dataset_unchanged(self):
        prepared = prepared_words(StoreConfig(seed=5))
        entries, sample = list(prepared.entries), list(prepared.sample_keys)
        prepared.build_network(16)
        assert list(prepared.entries) == entries
        assert list(prepared.sample_keys) == sample

    def test_detects_divergent_networks(self):
        config = StoreConfig(seed=0)
        sample = prepared_words(config).sample_keys
        a = PGridNetwork(16, config, sample_keys=sample)
        b = PGridNetwork(16, config, sample_keys=sample)
        b.peers[3].routing_table[0] += (0,)
        with pytest.raises(OverlayError, match="routing tables differ"):
            assert_networks_equivalent(a, b)

    def test_detects_divergent_tries(self):
        config = StoreConfig(seed=0)
        sample = prepared_words(config).sample_keys
        a = PGridNetwork(16, config, sample_keys=sample)
        b = PGridNetwork(32, config, sample_keys=sample)
        with pytest.raises(OverlayError, match="trie covers differ"):
            assert_networks_equivalent(a, b)
