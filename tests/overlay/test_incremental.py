"""Incremental sweep construction == from-scratch construction.

The incremental engine's whole contract is *bit-identical equivalence*:
a network grown by :class:`IncrementalNetworkBuilder` (shared trie split
counts, span-sampled routing tables, merge-walk placement) must be
structurally indistinguishable from one built from scratch with the
reference scan construction.  These tests pin that contract directly and
via random peer-count schedules.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig, TrieBalancing
from repro.core.errors import OverlayError
from repro.datasets.bible import bible_triples
from repro.overlay.incremental import (
    IncrementalNetworkBuilder,
    PreparedDataset,
    assert_networks_equivalent,
)
from repro.overlay.network import PGridNetwork

from tests.conftest import word_triples
from tests.reference.routing_tables import (
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


class TestIncrementalBuilder:
    @settings(max_examples=20, deadline=None)
    @given(
        schedule=st.lists(
            st.integers(min_value=1, max_value=64), min_size=1, max_size=5
        ),
        seed=st.integers(0, 5),
        replication=st.integers(1, 2),
    )
    def test_random_schedule_equals_scratch(self, schedule, seed, replication):
        """Any peer-count schedule yields scratch-identical networks.

        This is the property the sweep engine rests on: no matter which
        cells ran before (and thus what the shared trie-count cache
        contains), the next cell's network equals a from-scratch build.
        """
        config = StoreConfig(seed=seed, replication=replication)
        prepared = prepared_words(config)
        builder = IncrementalNetworkBuilder(prepared)
        for n_peers in schedule:
            grown = builder.build(n_peers)
            assert_networks_equivalent(grown, scratch_network(prepared, n_peers))

    def test_sweep_schedule_equals_scratch(self):
        """A sweep's cells, on a corpus large enough for deep tries: what
        the removed ``--check-incremental`` mode asserted per cell."""
        prepared = PreparedDataset.prepare(
            bible_triples(400, seed=2), StoreConfig(seed=1, replication=2)
        )
        builder = IncrementalNetworkBuilder(prepared)
        for n_peers in (16, 64, 256):
            assert_networks_equivalent(
                builder.build(n_peers), scratch_network(prepared, n_peers)
            )

    def test_trie_counts_accumulate_across_cells(self):
        config = StoreConfig(seed=0)
        builder = IncrementalNetworkBuilder(prepared_words(config))
        builder.build(16)
        first = builder.last_report
        builder.build(64)
        second = builder.last_report
        assert first.trie_counts_reused == 0
        assert first.trie_counts_added > 0
        # The larger cell starts from the smaller cell's splits.
        assert second.trie_counts_reused >= first.trie_counts_added

    def test_build_reports_record_timings(self):
        config = StoreConfig(seed=1)
        builder = IncrementalNetworkBuilder(prepared_words(config))
        builder.build(8)
        builder.build(32)
        assert [r.n_peers for r in builder.reports] == [8, 32]
        for report in builder.reports:
            assert report.construct_seconds >= 0
            assert report.place_seconds >= 0
            assert report.build_seconds >= report.construct_seconds

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
