"""Unit tests for prefix routing (Algorithm 1) and its variants."""

import pytest

from repro.core.config import StoreConfig
from repro.core.errors import PartitionUnreachableError
from repro.overlay.faults import FaultMode, FaultPlan

from tests.conftest import TEXT_ATTR, build_word_network, bytes_by_phase


@pytest.fixture(scope="module")
def network():
    return build_word_network(n_peers=64)


class TestRoute:
    def test_reaches_responsible_peer(self, network):
        codec = network.codec
        key = codec.attr_value_key(TEXT_ATTR, "apple")
        for start in range(0, network.n_peers, 7):
            peer = network.router.route(key, start)
            assert peer.responsible_for(key)

    def test_logarithmic_hops(self, network):
        codec = network.codec
        key = codec.attr_value_key(TEXT_ATTR, "cherry")
        network.tracer.reset()
        trials = 20
        for start in range(trials):
            network.router.route(key, start % network.n_peers)
        mean_hops = network.tracer.message_count / trials
        # Expected 0.5 * log2(64) = 3; allow generous slack.
        assert mean_hops <= 8

    def test_route_from_responsible_peer_is_free(self, network):
        codec = network.codec
        key = codec.attr_value_key(TEXT_ATTR, "apple")
        owner = network.partition_for(key).peer_ids[0]
        network.tracer.reset()
        peer = network.router.route(key, owner)
        assert peer.peer_id == owner
        assert network.tracer.message_count == 0


class TestRetrieve:
    def test_exact_lookup_finds_word(self, network):
        codec = network.codec
        key = codec.attr_value_key(TEXT_ATTR, "banana")
        entries, __ = network.router.retrieve(key, 0)
        values = {e.triple.value for e in entries if e.kind.value == "attr_value"}
        assert "banana" in values

    def test_prefix_retrieve_spans_partitions(self, network):
        # Truncated attribute prefixes may collide across attributes, so
        # the attribute is re-checked — as peers do (Section 3).
        prefix = network.codec.attr_prefix(TEXT_ATTR)
        entries, __ = network.router.retrieve(prefix, 0)
        values = {
            e.triple.value
            for e in entries
            if e.kind.value == "attr_value" and e.triple.attribute == TEXT_ATTR
        }
        from tests.conftest import WORDS

        assert values == set(WORDS)

    def test_missing_key_returns_empty(self, network):
        key = network.codec.attr_value_key(TEXT_ATTR, "zzzzzz")
        entries, __ = network.router.retrieve(key, 0)
        matching = [e for e in entries if e.triple.value == "zzzzzz"]
        assert matching == []


class TestMulticast:
    def test_contacts_every_partition_once(self, network):
        prefix = ""
        network.tracer.reset()
        peers = network.router.multicast_prefix(prefix, 0)
        partitions = {network.partition_for(p.path).index for p in peers}
        assert len(peers) == network.n_partitions
        assert len(partitions) == network.n_partitions

    def test_forward_messages_bounded(self, network):
        network.tracer.reset()
        network.router.multicast_prefix("", 0)
        forwards = network.tracer.snapshot().by_type.get("forward", 0)
        assert forwards == network.n_partitions - 1


class TestRouteMany:
    def test_batches_by_partition(self, network):
        codec = network.codec
        keys = [codec.attr_value_key(TEXT_ATTR, w) for w in ("apple", "apply", "band")]
        network.tracer.reset()
        answers = network.router.route_many(keys, 0)
        assert set(answers) == set(keys)
        for key, peer in answers.items():
            assert peer.responsible_for(key)

    def test_batching_beats_individual_routing(self, network):
        codec = network.codec
        from tests.conftest import WORDS

        keys = [codec.attr_value_key(TEXT_ATTR, w) for w in WORDS]
        network.tracer.reset()
        network.router.route_many(keys, 0)
        batched = network.tracer.message_count
        network.tracer.reset()
        for key in keys:
            network.router.route(key, 0)
        individual = network.tracer.message_count
        assert batched < individual

    def test_empty_batch(self, network):
        assert network.router.route_many([], 0) == {}
        assert network.router.route_partitions([], 0) == {}

    def test_route_partitions_is_the_loop_of_route_many(self):
        """Same partitions, same start, same seed: the same replicas
        answer, the same messages are charged and the router RNG ends in
        the same state, whether asked by key or by partition index."""
        from tests.conftest import WORDS

        config = StoreConfig(seed=9, replication=3)
        by_key, by_index = (
            build_word_network(n_peers=48, config=config) for __ in range(2)
        )
        keys = [by_key.codec.attr_value_key(TEXT_ATTR, w) for w in WORDS]
        answers = by_key.router.route_many(keys, 5, phase="p")
        indices = {by_index.partition_for(key).index for key in keys}
        reached = by_index.router.route_partitions(indices, 5, phase="p")
        assert list(reached) == sorted(indices)
        assert {
            by_key.partition_for(key).index: peer.peer_id
            for key, peer in answers.items()
        } == {index: peer.peer_id for index, peer in reached.items()}
        assert by_key.tracer.snapshot() == by_index.tracer.snapshot()
        assert by_key.router.rng.getstate() == by_index.router.rng.getstate()


def _broadcast_twins():
    """Two equal networks and, per network, one peer of every partition
    (the schema-level broadcast region), picked without a draw."""
    config = StoreConfig(seed=9, replication=3)
    twins = [build_word_network(n_peers=48, config=config) for __ in range(2)]
    peers = [
        [network.peer(partition.peer_ids[0]) for partition in network.partitions]
        for network in twins
    ]
    return twins, twins[0].partitions, peers


class TestBroadcastCharge:
    """``send_broadcast_fanout``: one query copy per peer of a region."""

    def test_healthy_bulk_and_verbose_charges_agree(self):
        (bulk, verbose), region, (bulk_peers, verbose_peers) = _broadcast_twins()
        assert len(region) >= 3
        verbose.tracer.record_log = True
        reached_bulk = bulk.router.send_broadcast_fanout(3, bulk_peers, 40)
        reached_verbose = verbose.router.send_broadcast_fanout(
            3, verbose_peers, 40
        )
        assert reached_bulk == bulk_peers
        assert reached_verbose == verbose_peers
        assert bulk.tracer.snapshot() == verbose.tracer.snapshot()
        assert bytes_by_phase(bulk.tracer) == bytes_by_phase(verbose.tracer)
        assert bytes_by_phase(bulk.tracer) == {"broadcast": 40 * len(region)}
        assert bulk.tracer.log == []
        assert len(verbose.tracer.log) == len(region)

    def test_degraded_plan_is_the_per_peer_failover_loop(self):
        (folded, loop), region, (folded_peers, loop_peers) = _broadcast_twins()
        # The first partition goes dark; the second loses its first replica.
        down = (*region[0].peer_ids, region[1].peer_ids[0])
        plan = FaultPlan(
            drop_probability=0.2,
            seed=4,
            unavailable_windows=tuple((peer, 0, 10**9) for peer in down),
        )
        for network in (folded, loop):
            network.install_faults(plan)
            network.fault_mode = FaultMode.DEGRADED
        reached = folded.router.send_broadcast_fanout(3, folded_peers, 40)
        expected = []
        for peer in loop_peers:
            receiver = loop.router.send_broadcast_failover(3, peer, 40)
            if receiver is not None:
                expected.append(receiver)
        assert [peer.peer_id for peer in reached] == [
            peer.peer_id for peer in expected
        ]
        session = folded.fault_injector.session
        assert region[0].index in session.dark
        assert session.failovers > 0 and session.retries > 0
        assert session == loop.fault_injector.session
        assert folded.tracer.snapshot() == loop.tracer.snapshot()
        assert bytes_by_phase(folded.tracer) == bytes_by_phase(loop.tracer)
        assert folded.router.rng.getstate() == loop.router.rng.getstate()
        assert (
            folded.fault_injector.rng.getstate()
            == loop.fault_injector.rng.getstate()
        )


class TestFailureHandling:
    def test_unreplicated_partition_is_picked_without_a_draw(self):
        network = build_word_network(n_peers=16, config=StoreConfig(seed=9))
        router = network.router
        partition = network.partition(3)
        (only,) = partition.peer_ids
        state = router.rng.getstate()
        assert router._live_replica(partition) is network.peer(only)
        assert router.rng.getstate() == state
        network.peer(only).online = False
        with pytest.raises(PartitionUnreachableError) as excinfo:
            router._live_replica(partition)
        assert excinfo.value.partition_index == 3
        assert excinfo.value.partition_path == partition.path

    def test_routing_survives_dead_reference(self):
        config = StoreConfig(seed=9, replication=2)
        network = build_word_network(n_peers=32, config=config)
        key = network.codec.attr_value_key(TEXT_ATTR, "apple")
        target = network.partition_for(key)
        # Kill one replica of the target partition; lookups must still work.
        network.peer(target.peer_ids[0]).online = False
        peer = network.router.route(key, network.peer(0).peer_id)
        assert peer.responsible_for(key)
        assert peer.online

    def test_unreachable_partition_raises(self):
        config = StoreConfig(seed=9)
        network = build_word_network(n_peers=16, config=config)
        key = network.codec.attr_value_key(TEXT_ATTR, "apple")
        target = network.partition_for(key)
        for peer_id in target.peer_ids:
            network.peer(peer_id).online = False
        start = next(
            p.peer_id
            for p in network.peers
            if p.online and not p.responsible_for(key)
        )
        with pytest.raises(PartitionUnreachableError):
            network.router.route(key, start)

    def test_offline_initiator_uses_replica(self):
        config = StoreConfig(seed=9, replication=2)
        network = build_word_network(n_peers=32, config=config)
        network.peer(0).online = False
        key = network.codec.attr_value_key(TEXT_ATTR, "apple")
        peer = network.router.route(key, 0)
        assert peer.responsible_for(key)
