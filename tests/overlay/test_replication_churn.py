"""Unit tests for replication analysis and churn injection."""

import pytest

from repro.core.config import StoreConfig
from repro.core.errors import OverlayError
from repro.overlay import replication
from repro.overlay.churn import ChurnController
from repro.overlay.replication import (
    audit_replicas,
    entry_signature,
    network_availability,
    partition_availability,
    repair_partition,
    replicas_needed,
)
from repro.storage.triple import Triple

from tests.conftest import TEXT_ATTR, build_word_network


@pytest.fixture()
def replicated_network():
    return build_word_network(n_peers=32, config=StoreConfig(seed=4, replication=2))


class TestReplicationAudit:
    def test_fresh_network_is_consistent(self, replicated_network):
        report = audit_replicas(replicated_network)
        assert report.consistent
        assert report.replication == 2

    def test_divergence_detected_and_repaired(self, replicated_network):
        network = replicated_network
        triple = Triple("w:7777", TEXT_ATTR, "quorum")
        entry = next(iter(network.entry_factory.entries_for(triple)))
        partition = network.partition_for(entry.key)
        # Write to only one replica: divergence.
        network.peer(partition.peer_ids[0]).store.add(entry)
        report = audit_replicas(network)
        assert not report.consistent
        assert partition.index in report.divergent_partitions
        copied = repair_partition(network, partition.index)
        assert copied >= 1
        assert audit_replicas(network).consistent

    def test_signature_distinguishes_gram_positions(self, replicated_network):
        """Repeated q-grams of one string repair per position (the
        signature includes ``position``; a position-less key would
        collapse them and leave the audit divergent after repair)."""
        network = replicated_network
        triple = Triple("w:8888", TEXT_ATTR, "banana")
        entries = list(network.entry_factory.entries_for(triple))
        signatures = {entry_signature(e) for e in entries}
        assert len(signatures) == len(entries), "positions must not collapse"
        # Write the whole object to one replica of each partition only.
        touched = set()
        for entry in entries:
            partition = network.partition_for(entry.key)
            network.peer(partition.peer_ids[0]).store.add(entry)
            touched.add(partition.index)
        report = audit_replicas(network)
        assert set(report.divergent_partitions) <= touched
        for index in report.divergent_partitions:
            repair_partition(network, index)
        assert audit_replicas(network).consistent
        # Every replica now holds all per-position gram entries.
        for entry in entries:
            partition = network.partition_for(entry.key)
            for peer_id in partition.peer_ids:
                present = {
                    entry_signature(e)
                    for e in network.peer(peer_id).store.lookup(entry.key)
                }
                assert entry_signature(entry) in present

    def test_identical_replicas_compute_no_signature(
        self, replicated_network, monkeypatch
    ):
        """A bulk load hands every replica the same entry objects, so the
        audit passes them on identity alone; a divergent partition pays
        one signature per entry of the replicas it compares."""
        network = replicated_network
        signed = []

        def counting(entry):
            signed.append(entry)
            return entry_signature(entry)

        monkeypatch.setattr(replication, "entry_signature", counting)
        assert audit_replicas(network).consistent
        assert signed == []
        triple = Triple("w:7776", TEXT_ATTR, "quorum")
        entry = next(iter(network.entry_factory.entries_for(triple)))
        partition = network.partition_for(entry.key)
        network.peer(partition.peer_ids[1]).store.add(entry)
        assert audit_replicas(network).divergent_partitions == [partition.index]
        stores = [network.peer(pid).store for pid in partition.peer_ids]
        assert len(signed) == sum(len(store) for store in stores)
        signed.clear()
        repair_partition(network, partition.index)
        assert len(signed) == sum(len(store) for store in stores) - 1

    def test_repair_charges_messages_when_asked(self, replicated_network):
        network = replicated_network
        triple = Triple("w:9999", TEXT_ATTR, "charged")
        entry = next(iter(network.entry_factory.entries_for(triple)))
        partition = network.partition_for(entry.key)
        network.peer(partition.peer_ids[0]).store.add(entry)
        before = network.tracer.snapshot()
        copied = repair_partition(network, partition.index, charge_messages=True)
        delta = before.delta(network.tracer.snapshot())
        assert copied >= 1
        assert delta.by_phase.get("repair", 0) >= 1
        assert delta.payload_bytes > 0

    def test_silent_repair_charges_nothing(self, replicated_network):
        network = replicated_network
        triple = Triple("w:9998", TEXT_ATTR, "silent")
        entry = next(iter(network.entry_factory.entries_for(triple)))
        partition = network.partition_for(entry.key)
        network.peer(partition.peer_ids[0]).store.add(entry)
        before = network.tracer.snapshot()
        repair_partition(network, partition.index)
        assert before.delta(network.tracer.snapshot()).messages == 0


class TestAvailabilityMath:
    def test_partition_availability(self):
        assert partition_availability(1, 0.1) == pytest.approx(0.9)
        assert partition_availability(3, 0.1) == pytest.approx(1 - 1e-3)

    def test_network_availability_decreases_with_partitions(self):
        one = network_availability(1, 2, 0.2)
        many = network_availability(100, 2, 0.2)
        assert many < one

    def test_replicas_needed(self):
        assert replicas_needed(0.0, 0.999) == 1
        assert replicas_needed(0.1, 0.999) == 3

    def test_replicas_needed_invalid(self):
        with pytest.raises(ValueError):
            replicas_needed(0.1, 1.5)
        with pytest.raises(ValueError):
            replicas_needed(1.0, 0.9)

    def test_partition_availability_invalid_probability(self):
        with pytest.raises(ValueError):
            partition_availability(2, 1.5)


class TestChurn:
    def test_fail_fraction_protects_partitions(self, replicated_network):
        controller = ChurnController(replicated_network, seed=1)
        report = controller.fail_fraction(0.5)
        assert report.all_partitions_reachable
        assert report.online_peers >= replicated_network.n_partitions
        controller.recover_all()

    def test_queries_survive_churn(self, replicated_network):
        network = replicated_network
        controller = ChurnController(network, seed=2)
        controller.fail_fraction(0.4)
        try:
            key = network.codec.attr_value_key(TEXT_ATTR, "apple")
            start = network.random_peer_id()
            entries, __ = network.router.retrieve(key, start)
            values = {e.triple.value for e in entries}
            assert "apple" in values
        finally:
            controller.recover_all()

    def test_unprotected_failures_can_darken_partitions(self, replicated_network):
        controller = ChurnController(replicated_network, seed=3)
        report = controller.fail_fraction(1.0, protect_partitions=False)
        assert not report.all_partitions_reachable
        controller.recover_all()

    def test_fail_specific_peers(self, replicated_network):
        controller = ChurnController(replicated_network, seed=4)
        report = controller.fail_peers([0, 1])
        assert 0 in report.failed_peer_ids
        assert not replicated_network.peer(0).online
        assert controller.recover_all() == 2

    def test_recover_all_counts(self, replicated_network):
        controller = ChurnController(replicated_network, seed=5)
        controller.fail_fraction(0.3)
        recovered = controller.recover_all()
        assert recovered > 0
        assert all(p.online for p in replicated_network.peers)

    def test_invalid_fraction_rejected(self, replicated_network):
        controller = ChurnController(replicated_network, seed=6)

        with pytest.raises(OverlayError):
            controller.fail_fraction(1.5)

    def test_fail_peers_rejects_unknown_ids(self, replicated_network):
        controller = ChurnController(replicated_network, seed=7)
        with pytest.raises(OverlayError) as excinfo:
            controller.fail_peers([0, replicated_network.n_peers + 5])
        assert excinfo.value.peer_id == replicated_network.n_peers + 5
        # Validation happens before any peer goes down.
        assert replicated_network.peer(0).online

    def test_fail_peers_skips_already_offline(self, replicated_network):
        controller = ChurnController(replicated_network, seed=8)
        try:
            first = controller.fail_peers([3])
            assert first.failed_peer_ids == [3]
            second = controller.fail_peers([3, 3, 5])
            # 3 was already down and the duplicate is deduped: only 5 counts.
            assert second.failed_peer_ids == [5]
        finally:
            controller.recover_all()

    def test_fail_peers_can_protect_partitions(self, replicated_network):
        network = replicated_network
        controller = ChurnController(network, seed=9)
        partition = network.partition(0)
        try:
            report = controller.fail_peers(
                list(partition.peer_ids), protect_partitions=True
            )
            # The last replica stays online: the partition never darkens.
            assert len(report.failed_peer_ids) == len(partition.peer_ids) - 1
            assert report.all_partitions_reachable
        finally:
            controller.recover_all()
