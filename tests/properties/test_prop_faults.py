"""Property-based tests for the fault layer and churn-repair invariants.

Three families:

* the bit-identity contract — an installed-but-empty :class:`FaultPlan`
  must leave every measured series identical to the direct path, over
  arbitrary seeds and query mixes;
* churn divergence — inserting while a replica is offline, then running
  anti-entropy repair, must always converge back to a consistent audit,
  including strings with repeated q-grams at different positions (the
  ``position``-in-signature fix);
* availability algebra — ``replicas_needed`` and
  ``partition_availability`` round-trip at arbitrary (and boundary)
  failure probabilities.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig
from repro.engine import QueryEngine
from repro.overlay.churn import ChurnController
from repro.overlay.faults import FaultPlan
from repro.overlay.replication import (
    audit_replicas,
    partition_availability,
    repair_partition,
    replicas_needed,
)
from repro.storage.triple import Triple

ATTR = "t:v"

word_lists = st.lists(
    st.text(alphabet="abcdef", min_size=2, max_size=8),
    min_size=3,
    max_size=15,
    unique=True,
)

#: Strings whose repeated q-grams occur at several positions — the worst
#: case for any position-less entry signature.
REPEATED_GRAM_WORDS = st.sampled_from(
    ["banana", "bandana", "aaaa", "abab", "ababab", "mississippi", "couscous"]
)


def build_engine(words, n_peers, seed, replication=1):
    config = StoreConfig(seed=seed, replication=replication)
    triples = [Triple(f"x:{i:03d}", ATTR, w) for i, w in enumerate(words)]
    return QueryEngine.build(n_peers=n_peers, triples=triples, config=config)


class TestNoopPlanBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(word_lists, st.integers(min_value=4, max_value=24), st.integers(0, 5))
    def test_installed_empty_plan_changes_nothing(self, words, n_peers, seed):
        def run(install):
            engine = build_engine(words, n_peers, seed)
            if install:
                engine.install_faults(FaultPlan(), mode="degraded")
            series = []
            for word in words:
                result = engine.similar(word, ATTR, 1)
                cost = engine.last_cost()
                series.append(
                    (
                        tuple(m.oid for m in result.matches),
                        cost.messages,
                        cost.payload_bytes,
                        tuple(sorted(cost.by_phase.items())),
                    )
                )
                assert cost.completeness is None
            return series

        assert run(False) == run(True)


class TestChurnRepairConvergence:
    @settings(max_examples=10, deadline=None)
    @given(
        word_lists,
        REPEATED_GRAM_WORDS,
        st.integers(min_value=8, max_value=24),
        st.integers(0, 5),
    )
    def test_insert_while_offline_then_repair_is_consistent(
        self, words, churn_word, n_peers, seed
    ):
        engine = build_engine(words, n_peers, seed, replication=2)
        assert audit_replicas(engine.network).consistent
        churn = ChurnController(engine.network, seed=seed)
        churn.fail_fraction(0.4, protect_partitions=True)
        # Writes the offline replicas miss — including one string whose
        # repeated q-grams must survive the signature round-trip.
        fresh = [Triple(f"f:{seed}:{i}", ATTR, w)
                 for i, w in enumerate([churn_word, churn_word + "x"])]
        engine.insert(fresh, respect_online=True)
        churn.recover_all()
        report = audit_replicas(engine.network)
        for index in report.divergent_partitions:
            repair_partition(engine.network, index)
        after = audit_replicas(engine.network)
        assert after.consistent, after.divergent_partitions

    @settings(max_examples=10, deadline=None)
    @given(REPEATED_GRAM_WORDS, st.integers(0, 3))
    def test_repaired_data_answers_queries(self, churn_word, seed):
        words = ["stable", "staple", "stables"]
        engine = build_engine(words, 16, seed, replication=2)
        churn = ChurnController(engine.network, seed=seed)
        churn.fail_fraction(0.5, protect_partitions=True)
        engine.insert(
            [Triple("f:q:0", ATTR, churn_word)], respect_online=True
        )
        churn.recover_all()
        report = audit_replicas(engine.network)
        for index in report.divergent_partitions:
            repair_partition(engine.network, index)
        engine.check_mutations()
        result = engine.similar(churn_word, ATTR, 0)
        assert any(m.oid == "f:q:0" for m in result.matches)


class TestAvailabilityAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
        st.floats(min_value=0.5, max_value=0.999999, allow_nan=False),
    )
    def test_replicas_needed_meets_target(self, failure_prob, target):
        k = replicas_needed(failure_prob, target)
        assert k >= 1
        assert partition_availability(k, failure_prob) >= target - 1e-9
        if k > 1:
            # Minimality: one replica fewer must miss the target.
            assert partition_availability(k - 1, failure_prob) < target + 1e-9

    def test_boundary_probabilities(self):
        # Certain survival: one replica suffices at any target.
        assert replicas_needed(0.0, 0.999999) == 1
        assert partition_availability(1, 0.0) == 1.0
        # Certain failure: no availability at all.
        assert partition_availability(3, 1.0) == 0.0
