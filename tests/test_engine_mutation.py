"""The engine's explicit write path and its delta maintenance.

Covers the mutable-store arc end to end: partition-scoped memo
invalidation on insert/delete, in-place statistics patching, the
replica-aware cost model under churn, and the regression the arc fixes —
failing and recovering a peer with **zero net data change** must not
drop a single memo entry (the old wholesale path cleared everything).
"""

import pytest

from repro.core.errors import ConfigError
from repro.core.config import StoreConfig
from repro.engine import QueryEngine
from repro.storage.triple import Triple

from tests.conftest import TEXT_ATTR, word_triples


@pytest.fixture()
def engine():
    return QueryEngine.build(32, word_triples(), StoreConfig(seed=7))


def _memo_entries(engine) -> int:
    return sum(m["entries"] for m in engine.memo_stats().values())


def _warm(engine) -> None:
    """Populate all three memos from a few distinct queries."""
    engine.similar("apple", TEXT_ATTR, 1, strategy="strings")
    engine.similar("apple", TEXT_ATTR, 1)
    engine.similar("banana", TEXT_ATTR, 1)
    engine.similar("cherry", TEXT_ATTR, 1)


class TestWritePath:
    def test_invalid_maintenance_mode_rejected(self):
        with pytest.raises(ConfigError):
            QueryEngine.build(8, memo_maintenance="sometimes")

    def test_insert_returns_entries_and_bumps_version(self, engine):
        before = engine.store_version
        applied = engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        assert applied > 0
        assert engine.store_version > before

    def test_delete_inverts_insert(self, engine):
        triple = Triple("x:new", TEXT_ATTR, "apricot")
        inserted = engine.insert([triple])
        removed = engine.delete([triple])
        assert removed == inserted
        result = engine.similar("apricot", TEXT_ATTR, 0)
        assert not result.matches

    def test_delete_of_absent_triple_is_noop(self, engine):
        _warm(engine)
        entries = _memo_entries(engine)
        removed = engine.delete([Triple("x:ghost", TEXT_ATTR, "spectral")])
        assert removed == 0
        assert _memo_entries(engine) == entries

    def test_delta_mode_retains_unaffected_fetch_entries(self, engine):
        _warm(engine)
        before = len(engine.fetch_memo)
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        assert 0 < len(engine.fetch_memo) < before
        assert engine.fetch_memo.invalidations > 0

    def test_repeat_query_after_write_hits_retained_memos(self, engine):
        _warm(engine)
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        hits_before = engine.fetch_memo.hits
        engine.similar("banana", TEXT_ATTR, 1)
        engine.similar("cherry", TEXT_ATTR, 1)
        assert engine.fetch_memo.hits > hits_before

    def test_drop_mode_clears_everything(self):
        engine = QueryEngine.build(
            32, word_triples(), StoreConfig(seed=7), memo_maintenance="drop"
        )
        _warm(engine)
        assert _memo_entries(engine) > 0
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        assert _memo_entries(engine) == 0

    def test_engine_write_does_not_trip_out_of_band_check(self, engine):
        _warm(engine)
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        retained = _memo_entries(engine)
        assert retained > 0
        # The write already accounted for its own token advance; the
        # out-of-band detector must not re-drop the survivors.
        assert engine.check_mutations() is False
        assert _memo_entries(engine) == retained


class TestMembershipChange:
    def test_query_after_split_sees_no_stale_memo_entry(self):
        """A split renumbers partitions under the index-keyed memos.

        The split partition's store was written once after the bulk load
        (version 2) and is replaced by two fresh stores at version 1 —
        the case the old summed token could not see.  The token now
        moves with every membership change, so the next recorded
        operation drops every memo and answers — and charges — exactly
        like an engine that never cached anything.
        """
        from repro.overlay.membership import MembershipManager

        def build(**options):
            return QueryEngine.build(
                8, word_triples(), StoreConfig(seed=7), **options
            )

        def heaviest(network):
            return max(
                network.partitions,
                key=lambda p: len(network.peer(p.peer_ids[0]).store),
            )

        engine, reference = build(), build(memoize=False)
        network = engine.network
        target = heaviest(network).index
        oid = next(
            f"x:{i}"
            for i in range(10_000)
            if network.partition_for(network.codec.oid_key(f"x:{i}")).index
            == target
        )
        for each in (engine, reference):
            each.insert([Triple(oid, TEXT_ATTR, "apricot")])
            _warm(each)
            assert heaviest(each.network).index == target
            MembershipManager(each.network).join()
        assert _memo_entries(engine) > 0  # still holding pre-split indices
        assert engine.check_mutations() is True
        assert _memo_entries(engine) == 0
        for search in ("apple", "apricot", "cherry"):
            for strategy in ("qgrams", "strings"):
                got = engine.similar(search, TEXT_ATTR, 1, strategy=strategy)
                want = reference.similar(search, TEXT_ATTR, 1, strategy=strategy)
                assert [(m.oid, m.triples) for m in got.matches] == [
                    (m.oid, m.triples) for m in want.matches
                ]
                assert engine.last_cost().messages == reference.last_cost().messages
                assert (
                    engine.last_cost().payload_bytes
                    == reference.last_cost().payload_bytes
                )


class TestStatisticsDelta:
    def test_insert_patches_row_counts(self, engine):
        engine.analyze([TEXT_ATTR])
        stats = engine.catalog.get(TEXT_ATTR)
        rows, string_rows = stats.row_count, stats.string_rows
        gram_rows = stats.gram_rows
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        assert stats.row_count == rows + 1
        assert stats.string_rows == string_rows + 1
        assert stats.gram_rows == gram_rows + len("apricot") + engine.config.q - 1

    def test_delete_patches_back(self, engine):
        engine.analyze([TEXT_ATTR])
        stats = engine.catalog.get(TEXT_ATTR)
        rows = stats.row_count
        triple = Triple("x:new", TEXT_ATTR, "apricot")
        engine.insert([triple])
        engine.delete([triple])
        assert stats.row_count == rows

    def test_unanalyzed_attribute_untouched(self, engine):
        engine.analyze([TEXT_ATTR])
        engine.insert([Triple("x:new", "other:attr", "value")])
        assert engine.catalog.get("other:attr") is None


class TestChurnRegression:
    def test_zero_net_change_recovery_keeps_all_memos(self, engine):
        """fail + recover with no writes in between drops nothing.

        The old flow (mutation-token check after anti-entropy repair)
        wholesale-dropped every memo after any churn episode; with the
        write path owning churn, a cycle with zero net data change is
        invisible to the memos.
        """
        _warm(engine)
        entries = _memo_entries(engine)
        assert entries > 0
        report = engine.fail_peers([0, 3, 5])
        assert report.failed_peer_ids
        recovery = engine.recover(repair=True)
        assert recovery.recovered_peers == len(report.failed_peer_ids)
        assert not recovery.data_changed
        assert recovery.entries_copied == 0
        assert _memo_entries(engine) == entries
        for memo in (engine.naive_memo, engine.gram_scan_memo, engine.fetch_memo):
            assert memo.invalidations == 0

    def test_divergent_recovery_invalidates_only_repaired_partitions(self):
        engine = QueryEngine.build(
            32, word_triples(), StoreConfig(seed=7, replication=2)
        )
        _warm(engine)
        engine.fail_fraction(0.3, protect_partitions=True)
        # Writes the offline replicas miss: they diverge until repair.
        engine.insert(
            [Triple("x:new", TEXT_ATTR, "apricot")], respect_online=True
        )
        fetch_entries = len(engine.fetch_memo)
        recovery = engine.recover(repair=True)
        assert recovery.data_changed
        assert recovery.entries_copied > 0
        repaired = set(recovery.divergent_partitions)
        for record in engine.fetch_memo._cache.values():
            assert record.partition_index not in repaired
        assert len(engine.fetch_memo) <= fetch_entries

    def test_queries_correct_after_divergent_recovery(self):
        engine = QueryEngine.build(
            32, word_triples(), StoreConfig(seed=7, replication=2)
        )
        _warm(engine)
        engine.fail_fraction(0.3, protect_partitions=True)
        engine.insert(
            [Triple("x:new", TEXT_ATTR, "apricot")], respect_online=True
        )
        engine.recover(repair=True)
        result = engine.similar("apricot", TEXT_ATTR, 0)
        assert "apricot" in {m.matched for m in result.matches}


class TestReplicaAwareCost:
    def test_healthy_predictions_unchanged_by_churn_cycle(self):
        engine = QueryEngine.build(
            32, word_triples(), StoreConfig(seed=7, replication=2),
        )
        engine.analyze([TEXT_ATTR])
        before = engine.predict_similar("apple", TEXT_ATTR, 1)
        engine.fail_peers([1, 4])
        engine.recover(repair=True)
        after = engine.predict_similar("apple", TEXT_ATTR, 1)
        # Bit-identical floats, not approximately equal: the healthy
        # path must short-circuit the reachability scan entirely.
        for name in before:
            assert before[name].messages == after[name].messages
            assert before[name].latency_ms == after[name].latency_ms

    def test_offline_replicas_shrink_predictions(self):
        engine = QueryEngine.build(
            32, word_triples(), StoreConfig(seed=7, replication=2),
        )
        engine.analyze([TEXT_ATTR])
        healthy = engine.predict_similar("apple", TEXT_ATTR, 1)
        # Darken one partition of the attribute's own key region —
        # random churn may only hit partitions outside it.
        network = engine.network
        prefix = network.codec.attr_prefix(TEXT_ATTR)
        region = network.partitions_under(prefix)
        engine.fail_peers(
            list(region[0].peer_ids), protect_partitions=False
        )
        assert engine.cost_model._reachable_fraction(TEXT_ATTR) < 1.0
        degraded = engine.predict_similar("apple", TEXT_ATTR, 1)
        assert any(
            degraded[name].messages < healthy[name].messages
            for name in healthy
        )
        engine.recover(repair=True)
