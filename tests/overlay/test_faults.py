"""Unit tests for the fault-injected transport and degraded queries."""

import pytest

from repro.core.config import StoreConfig
from repro.core.errors import (
    ConfigError,
    OverlayError,
    PartitionUnreachableError,
    RoutingError,
)
from repro.engine import QueryEngine
from repro.overlay import keys as keyspace
from repro.overlay.churn import ChurnController
from repro.overlay.faults import (
    Completeness,
    DeliveryOutcome,
    FaultInjector,
    FaultMode,
    FaultPlan,
    FaultSession,
    RetryPolicy,
)
from repro.query.operators.string_range import select_string_range
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple

from tests.conftest import LEN_ATTR, TEXT_ATTR, WORDS, word_triples


def build_engine(**config_overrides) -> QueryEngine:
    options = {"seed": 7, "replication": 3}
    options.update(config_overrides)
    return QueryEngine.build(
        n_peers=32, triples=word_triples(), config=StoreConfig(**options)
    )


class TestFaultPlan:
    def test_default_plan_is_noop(self):
        assert FaultPlan().is_noop
        assert FaultPlan().is_noop

    def test_lossy_plan_is_active(self):
        plan = FaultPlan.lossy(0.25, seed=3)
        assert not plan.is_noop
        assert plan.drop_probability == 0.25
        assert not FaultInjector(plan).active is False or True  # injector builds

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(drop_probability=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(link_latency=-1.0)
        with pytest.raises(ConfigError):
            FaultPlan(unavailable_windows=((0, 5, 2),))  # end before start

    def test_mode_from_name(self):
        assert FaultMode.from_name("strict") is FaultMode.STRICT
        assert FaultMode.from_name("degraded") is FaultMode.DEGRADED
        assert FaultMode.from_name(FaultMode.DEGRADED) is FaultMode.DEGRADED
        with pytest.raises(ConfigError):
            FaultMode.from_name("lenient")


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff=0.1, backoff_factor=2.0, max_backoff=0.5)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(retry_budget=-1)


class TestInjector:
    def test_noop_plan_never_activates(self):
        injector = FaultInjector(FaultPlan())
        assert not injector.active

    def test_seeded_drops_are_deterministic(self):
        outcomes_a = [
            FaultInjector(FaultPlan.lossy(0.5, seed=9)).attempt(0, 1)
            for __ in range(1)
        ]
        injector_b = FaultInjector(FaultPlan.lossy(0.5, seed=9))
        assert injector_b.attempt(0, 1) == outcomes_a[0]

    def test_unavailability_window_on_attempt_clock(self):
        # Half-open [start, end) on the attempt clock, which ticks
        # before the check: attempts 1 and 2 fall inside (1, 3).
        plan = FaultPlan(unavailable_windows=((1, 1, 3),), seed=0)
        injector = FaultInjector(plan)
        assert injector.attempt(0, 1) is DeliveryOutcome.UNAVAILABLE  # clock 1
        assert injector.attempt(0, 1) is DeliveryOutcome.UNAVAILABLE  # clock 2
        assert injector.attempt(0, 1) is DeliveryOutcome.DELIVERED  # clock 3

    def test_slow_links_override_default_latency(self):
        plan = FaultPlan(slow_links=((0, 1, 0.25),), link_latency=0.01)
        injector = FaultInjector(plan)
        assert injector.link_latency(0, 1) == pytest.approx(0.25)
        assert injector.link_latency(1, 0) == pytest.approx(0.01)


class TestSessionCompleteness:
    def test_empty_session_is_complete(self):
        session = FaultSession(retry_budget_left=8)
        completeness = session.completeness()
        assert completeness.fraction == 1.0
        assert not completeness.is_partial

    def test_dark_mass_uses_partition_spans(self):
        session = FaultSession(retry_budget_left=8)

        class P:  # minimal partition stand-in
            def __init__(self, index, path):
                self.index, self.path = index, path

        session.record_target(P(0, "00"))  # mass 1/4
        session.record_target(P(1, "01"))  # mass 1/4
        session.record_dark(P(1, "01"))
        completeness = session.completeness()
        assert completeness.fraction == pytest.approx(0.5)
        assert completeness.dark_partitions == (1,)
        assert completeness.is_partial

    def test_dropped_candidates_mark_partial(self):
        complete = Completeness.complete()
        assert not complete.is_partial
        session = FaultSession(retry_budget_left=8)
        session.dropped_candidates = 3
        assert session.completeness().is_partial


class TestEngineFaultWiring:
    def test_fault_mode_toggle(self):
        engine = build_engine()
        assert engine.fault_mode == "strict"
        engine.fault_mode = "degraded"
        assert engine.fault_mode == "degraded"
        with pytest.raises(ConfigError):
            engine.fault_mode = "bogus"

    def test_healthy_engine_reports_no_completeness(self):
        engine = build_engine()
        engine.similar("apple", TEXT_ATTR, 1)
        assert engine.last_cost().completeness is None

    def test_noop_plan_reports_no_completeness(self):
        engine = build_engine()
        engine.install_faults(FaultPlan(), mode="degraded")
        engine.similar("apple", TEXT_ATTR, 1)
        assert engine.last_cost().completeness is None

    def test_retry_phase_charged_under_loss(self):
        engine = build_engine()
        engine.install_faults(FaultPlan.lossy(0.15, seed=2), mode="degraded")
        retry_total = 0
        for word in WORDS[:8]:
            engine.similar(word, TEXT_ATTR, 1)
            retry_total += engine.last_cost().by_phase.get("retry", 0)
        assert retry_total > 0
        completeness = engine.last_cost().completeness
        assert completeness is not None
        assert completeness.retries + completeness.dropped_messages >= 0

    def test_lossy_but_fully_replicated_stays_complete(self):
        """Acceptance: 40% churn with protection + k=3 keeps answers whole."""
        engine = build_engine()
        engine.install_faults(FaultPlan.lossy(0.05, seed=9), mode="degraded")
        ChurnController(engine.network, seed=2).fail_fraction(
            0.4, protect_partitions=True
        )
        for word in WORDS[:8]:
            engine.similar(word, TEXT_ATTR, 1)
            assert engine.last_cost().completeness.fraction == 1.0


def _dark_oid(engine, dark_index):
    partition = engine.network.partition(dark_index)
    store = engine.network.peer(partition.peer_ids[0]).store
    return next(
        (e.triple.oid for e in store if e.kind is EntryKind.OID), None
    )


class TestDegradedQueries:
    def test_hard_partition_loss_yields_partial_results(self):
        """Acceptance: dark partitions -> partial answers + accurate record."""
        engine = build_engine()
        engine.install_faults(FaultPlan.lossy(0.02, seed=5), mode="degraded")
        churn = ChurnController(engine.network, seed=1)
        report = churn.fail_fraction(0.5, protect_partitions=False)
        assert report.dark_partitions, "scenario needs at least one dark partition"
        dark_index = report.dark_partitions[0]
        oid = _dark_oid(engine, dark_index)
        assert oid is not None
        result = engine.lookup(oid)
        completeness = engine.last_cost().completeness
        assert result == ()
        assert completeness.fraction < 1.0
        assert dark_index in completeness.dark_partitions

    def test_strict_mode_raises_on_dark_partition(self):
        engine = build_engine()
        engine.install_faults(FaultPlan(), mode="strict")
        # Force activity so the injector path runs: tiny loss, strict.
        engine.install_faults(FaultPlan.lossy(0.01, seed=5), mode="strict")
        churn = ChurnController(engine.network, seed=1)
        report = churn.fail_fraction(0.5, protect_partitions=False)
        assert report.dark_partitions
        oid = _dark_oid(engine, report.dark_partitions[0])
        with pytest.raises((PartitionUnreachableError, RoutingError)) as excinfo:
            engine.lookup(oid)
        error = excinfo.value
        assert (
            error.partition_index is not None
            or error.peer_id is not None
            or error.partition_path is not None
        )

    def test_degraded_naive_broadcast_skips_dark_region(self):
        engine = build_engine()
        engine.install_faults(FaultPlan.lossy(0.02, seed=5), mode="degraded")
        # Darken the attribute region's first partition explicitly.
        prefix = engine.network.codec.attr_prefix(TEXT_ATTR)
        region = engine.network.partitions_under(prefix)
        churn = ChurnController(engine.network, seed=0)
        churn.fail_peers(list(region[0].peer_ids), protect_partitions=False)
        engine.similar("apple", TEXT_ATTR, 1, strategy="strings")
        completeness = engine.last_cost().completeness
        assert region[0].index in completeness.dark_partitions
        assert completeness.fraction < 1.0


class TestRangeQueriesUnderFaults:
    """String ranges, numeric similarity and numeric top-N shower through
    :func:`~repro.overlay.range_query.range_query`'s fault branch."""

    TRUE_TRIPLES = set(word_triples())

    @staticmethod
    def _string_range(engine):
        with engine.recorded():
            return select_string_range(engine.ctx, TEXT_ATTR, "apple", "grape")

    @classmethod
    def _queries(cls, engine):
        words = cls._string_range(engine)
        costs = [engine.last_cost()]
        near = engine.similar_numeric(LEN_ATTR, 6, 1)
        costs.append(engine.last_cost())
        top = engine.top_n(LEN_ATTR, 4, "nn", reference=5).matches
        costs.append(engine.last_cost())
        return words, near, top, costs

    def _assert_true(self, words, near, top):
        for triple in words:
            assert triple in self.TRUE_TRIPLES
            assert "apple" <= triple.value <= "grape"
        for match in near + top:
            assert set(match.triples) <= self.TRUE_TRIPLES
            assert Triple(match.oid, LEN_ATTR, int(match.matched)) in (
                self.TRUE_TRIPLES
            )
        assert all(abs(int(match.matched) - 6) <= 1 for match in near)

    def test_degraded_drops_return_only_true_matches(self):
        engine = build_engine()
        engine.install_faults(FaultPlan.lossy(0.3, seed=3), mode="degraded")
        # The string range's first partition goes dark: the shower must
        # enter at the next one.
        lo, hi = engine.network.codec.attr_string_range(TEXT_ATTR, "apple", "grape")
        first = engine.network.partitions_in_range(
            keyspace.key_to_int(lo), keyspace.key_to_int(hi)
        )[0]
        ChurnController(engine.network).fail_peers(list(first.peer_ids))
        words, near, top, costs = self._queries(engine)
        self._assert_true(words, near, top)
        assert all(cost.completeness is not None for cost in costs)
        assert first.index in costs[0].completeness.dark_partitions
        assert sum(cost.by_phase.get("retry", 0) for cost in costs) > 0

    def test_noop_plan_costs_what_a_healthy_engine_costs(self):
        healthy = build_engine()
        noop = build_engine()
        noop.install_faults(FaultPlan(), mode="degraded")
        *answers, costs = self._queries(healthy)
        *noop_answers, noop_costs = self._queries(noop)
        assert noop_answers == answers
        assert [
            (c.messages, c.payload_bytes, c.by_type, c.by_phase, c.completeness)
            for c in noop_costs
        ] == [
            (c.messages, c.payload_bytes, c.by_type, c.by_phase, None)
            for c in costs
        ]
        self._assert_true(*answers)

    @pytest.mark.parametrize(
        "query",
        [
            lambda engine: TestRangeQueriesUnderFaults._string_range(engine),
            lambda engine: engine.similar_numeric(LEN_ATTR, 6, 1),
            lambda engine: engine.top_n(LEN_ATTR, 4, "nn", reference=6),
        ],
        ids=["string_range", "similar_numeric", "top_n"],
    )
    def test_strict_mode_raises_on_a_dark_partition(self, query):
        engine = build_engine()
        engine.install_faults(FaultPlan.lossy(0.01, seed=5), mode="strict")
        network = engine.network
        for key in (
            network.codec.attr_value_key(TEXT_ATTR, "banana"),
            network.codec.attr_value_key(LEN_ATTR, 6),
        ):
            ChurnController(network).fail_peers(
                list(network.partition_for(key).peer_ids)
            )
        with pytest.raises(PartitionUnreachableError):
            query(engine)


class TestBitIdentity:
    """Acceptance property: empty plan == no injector, bit for bit."""

    def _series(self, noop_mode: str | None):
        engine = build_engine()
        if noop_mode is not None:
            engine.install_faults(FaultPlan(), mode=noop_mode)
        series = []
        for word in WORDS:
            for strategy in ("qgrams", "strings", "qsamples"):
                result = engine.similar(word, TEXT_ATTR, 1, strategy=strategy)
                cost = engine.last_cost()
                series.append(
                    (
                        strategy,
                        tuple(m.oid for m in result.matches),
                        cost.messages,
                        cost.payload_bytes,
                        tuple(sorted(cost.by_type.items())),
                        tuple(sorted(cost.by_phase.items())),
                    )
                )
        join = engine.sim_join_anchored(TEXT_ATTR, "apple", TEXT_ATTR, 2)
        cost = engine.last_cost()
        series.append(("join", len(join.pairs), cost.messages, cost.payload_bytes))
        return series

    @pytest.mark.parametrize("mode", ["strict", "degraded"])
    def test_empty_plan_is_bit_identical_to_direct_path(self, mode):
        assert self._series(None) == self._series(mode)

    @staticmethod
    def _verbose_log(noop_mode: str | None):
        engine = build_engine()
        engine.network.tracer.record_log = True
        if noop_mode is not None:
            engine.install_faults(FaultPlan(), mode=noop_mode)
        for strategy in ("qgram", "qsample", "naive"):
            engine.similar("apple", TEXT_ATTR, 2, strategy=strategy)
        return list(engine.network.tracer.log)

    @pytest.mark.parametrize("mode", ["strict", "degraded"])
    def test_empty_plan_keeps_the_verbose_log(self, mode):
        """Per-message logs (sender, receiver, order) match exactly."""
        log = self._verbose_log(None)
        assert log and self._verbose_log(mode) == log


class TestStructuredOverlayErrors:
    def test_overlay_error_carries_context(self):
        error = OverlayError("boom", partition_index=4, partition_path="0100", peer_id=9)
        assert error.partition_index == 4
        assert error.partition_path == "0100"
        assert error.peer_id == 9

    def test_context_defaults_to_none(self):
        error = PartitionUnreachableError("dark")
        assert error.partition_index is None
        assert error.peer_id is None

    def test_no_online_replica_raise_carries_partition(self):
        engine = build_engine()
        partition = engine.network.partition(0)
        for peer_id in partition.peer_ids:
            engine.network.peer(peer_id).online = False
        with pytest.raises(PartitionUnreachableError) as excinfo:
            engine.network.router._live_replica(partition)
        assert excinfo.value.partition_index == 0
        assert excinfo.value.partition_path == partition.path
        for peer_id in partition.peer_ids:
            engine.network.peer(peer_id).online = True
