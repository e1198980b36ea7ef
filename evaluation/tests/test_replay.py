"""Unit tests for the discrete-event latency replay."""

import pytest

from repro.core.config import SimilarityStrategy
from repro.overlay.messages import Message, MessageType
from repro.query.operators.base import OperatorContext
from repro.query.operators.similar import similar
from evaluation.replay import LatencyDistribution, replay_latency, replay_operation

from tests.conftest import TEXT_ATTR, build_word_network

FIXED = LatencyDistribution(median_ms=10.0, sigma=0.0, per_kb_ms=0.0)


def message(type, sender, receiver, payload=0, phase="q"):
    return Message(type, sender, receiver, payload, phase)


class TestReplayMechanics:
    def test_sequential_chain_sums(self):
        log = [
            message(MessageType.ROUTE, 0, 1),
            message(MessageType.ROUTE, 1, 2),
            message(MessageType.RESULT, 2, 0),
        ]
        outcome = replay_latency(log, initiator_id=0, model=FIXED)
        assert outcome.completion_ms == pytest.approx(30.0)

    def test_fan_out_is_parallel(self):
        # One sender, three receivers, all answering: 1 hop out + 1 back.
        log = [
            message(MessageType.FORWARD, 0, i) for i in (1, 2, 3)
        ] + [
            message(MessageType.RESULT, i, 0) for i in (1, 2, 3)
        ]
        outcome = replay_latency(log, initiator_id=0, model=FIXED)
        assert outcome.completion_ms == pytest.approx(20.0)

    def test_join_waits_for_slowest_branch(self):
        log = [
            message(MessageType.ROUTE, 0, 1),  # short branch
            message(MessageType.ROUTE, 0, 2),  # long branch ...
            message(MessageType.ROUTE, 2, 3),
            message(MessageType.RESULT, 1, 9),
            message(MessageType.RESULT, 3, 9),
        ]
        outcome = replay_latency(log, initiator_id=9, model=FIXED)
        assert outcome.completion_ms == pytest.approx(30.0)

    def test_delegate_rides_the_route(self):
        log = [
            message(MessageType.ROUTE, 0, 1),
            message(MessageType.DELEGATE, 0, 1, payload=0),
            message(MessageType.RESULT, 1, 0),
        ]
        outcome = replay_latency(log, initiator_id=0, model=FIXED)
        assert outcome.completion_ms == pytest.approx(20.0)

    def test_payload_adds_bandwidth_time(self):
        model = LatencyDistribution(median_ms=0.0, sigma=0.0, per_kb_ms=1.0)
        log = [message(MessageType.RESULT, 1, 0, payload=2048)]
        outcome = replay_latency(log, initiator_id=0, model=model)
        assert outcome.completion_ms == pytest.approx(2.0)

    def test_empty_log(self):
        outcome = replay_latency([], initiator_id=0, model=FIXED)
        assert outcome.completion_ms == 0.0
        assert outcome.messages == 0

    def test_deterministic_given_seed(self):
        model = LatencyDistribution(median_ms=10.0, sigma=0.5)
        log = [message(MessageType.ROUTE, 0, 1) for __ in range(5)]
        a = replay_latency(log, 0, model, seed=3)
        b = replay_latency(log, 0, model, seed=3)
        assert a.completion_ms == b.completion_ms

    def test_phase_makespans_recorded(self):
        log = [
            message(MessageType.ROUTE, 0, 1, phase="gram"),
            message(MessageType.RESULT, 1, 0, phase="oid"),
        ]
        outcome = replay_latency(log, initiator_id=0, model=FIXED)
        assert set(outcome.makespan_by_phase) == {"gram", "oid"}


class TestReplayOperation:
    @pytest.fixture(scope="class")
    def network(self):
        return build_word_network(n_peers=48)

    def test_similar_replay_produces_latency(self, network):
        ctx = OperatorContext(network)
        initiator = 0
        result, timing = replay_operation(
            network,
            lambda: similar(ctx, "apple", TEXT_ATTR, 1, initiator),
            initiator,
            model=FIXED,
        )
        assert result.matches
        assert timing.completion_ms > 0
        assert timing.messages > 0

    def test_log_not_retained_when_disabled(self, network):
        ctx = OperatorContext(network)
        assert not network.tracer.record_log
        replay_operation(
            network,
            lambda: similar(ctx, "apple", TEXT_ATTR, 1, 0),
            0,
            model=FIXED,
        )
        assert network.tracer.log == []

    def test_qsample_not_slower_than_qgram(self, network):
        """Fewer gram lookups should not lengthen the critical path."""
        ctx = OperatorContext(network)
        __, qgram = replay_operation(
            network,
            lambda: similar(
                ctx, "bandana", TEXT_ATTR, 2, 0,
                strategy=SimilarityStrategy.QGRAM,
            ),
            0,
            model=FIXED,
        )
        __, qsample = replay_operation(
            network,
            lambda: similar(
                ctx, "bandana", TEXT_ATTR, 2, 0,
                strategy=SimilarityStrategy.QSAMPLE,
            ),
            0,
            model=FIXED,
        )
        assert qsample.completion_ms <= qgram.completion_ms * 1.5
