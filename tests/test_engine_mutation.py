"""The engine's explicit write path and its delta maintenance.

Covers the mutable-store arc end to end: partition-scoped memo
invalidation on insert/delete, in-place statistics patching, the
replica-aware cost model under churn, and the regression the arc fixes —
failing and recovering a peer with **zero net data change** must not
drop a single memo entry (the old wholesale path cleared everything).
"""

import copy
from unittest import mock

import pytest

from repro.core.errors import ConfigError
from repro.core.config import StoreConfig
from repro.engine import QueryEngine
from repro.overlay.replication import audit_replicas
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
        """Nothing stored, so nothing moves: no store version, no memo
        record or invalidation count, no statistic."""
        engine.analyze([TEXT_ATTR])
        _warm(engine)

        def observed():
            return (
                engine.store_version,
                [peer.store.version for peer in engine.network.peers],
                {
                    name: (stats["entries"], stats["invalidations"])
                    for name, stats in engine.memo_stats().items()
                },
                copy.deepcopy(engine.catalog),
            )

        before = observed()
        assert before[2]["fetch"][0] > 0
        ghosts = [
            Triple("x:ghost", TEXT_ATTR, "spectral"),
            # A stored object's oid and a stored word, never stored together.
            Triple("w:0000", TEXT_ATTR, "maple"),
        ]
        assert engine.delete(ghosts) == 0
        assert engine.delete(ghosts, respect_online=True) == 0
        assert observed() == before
        assert engine.check_mutations() is False

    def test_entry_on_one_contacted_replica_counts_once_and_heals(self):
        """A replica that missed an insert is contacted by the delete: each
        entry still counts once, the replica that never held it is left
        alone, and ``recover()`` repairs what remains diverged."""
        engine = QueryEngine.build(
            32, word_triples(), StoreConfig(seed=7, replication=2)
        )
        network = engine.network
        kept = Triple("x:kept", TEXT_ATTR, "apricot")
        gone = Triple("x:gone", TEXT_ATTR, "apricots")
        gone_entries = list(network.entry_factory.entries_for(gone))
        home = network.partition_for(gone_entries[0].key)
        holder, lagging = home.peer_ids
        engine.fail_peers([lagging])
        engine.insert([kept, gone], respect_online=True)
        engine.recover(repair=False)  # back online, still missing the write
        assert not audit_replicas(network).consistent
        _warm(engine)

        versions = [peer.store.version for peer in network.peers]
        ghost = Triple("x:ghost", TEXT_ATTR, "spectral")
        removed = engine.delete([ghost, gone], respect_online=True)
        assert removed == len(gone_entries)
        written = {
            peer.peer_id
            for peer, version in zip(network.peers, versions)
            if peer.store.version != version
        }
        allowed = {
            peer_id
            for entry in gone_entries
            for peer_id in network.partition_for(entry.key).peer_ids
        }
        assert holder in written and lagging not in written
        assert written <= allowed

        recovery = engine.recover()
        assert home.index in recovery.divergent_partitions  # ``kept`` remains
        assert audit_replicas(network).consistent
        found = engine.similar("apricot", TEXT_ATTR, 1).matches
        assert {m.oid for m in found} == {"x:kept"}

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


class TestInvalidationIndex:
    """``invalidate_partitions`` finds records by partition, not by scan."""

    def test_drops_exactly_the_named_partitions(self, engine):
        _warm(engine)
        fetch, scans = engine.fetch_memo, engine.gram_scan_memo
        def partition_of(oid):
            return fetch.addresses[oid][1]

        named = {
            min(map(partition_of, fetch.records)),
            min(signature[0] for signature in scans._cache),
        }
        in_fetch = sum(partition_of(oid) in named for oid in fetch.records)
        in_scans = sum(signature[0] in named for signature in scans._cache)
        sizes = len(fetch), len(scans)
        counted = fetch.invalidations, scans.invalidations

        assert fetch.invalidate_partitions(named) == in_fetch > 0
        assert scans.invalidate_partitions(named) == in_scans > 0
        assert (len(fetch), len(scans)) == (sizes[0] - in_fetch, sizes[1] - in_scans)
        assert fetch.invalidations == counted[0] + in_fetch
        assert scans.invalidations == counted[1] + in_scans
        assert all(partition_of(oid) not in named for oid in fetch.records)
        assert all(signature[0] not in named for signature in scans._cache)
        # Nothing is left under those partitions, and nothing is recounted.
        assert fetch.invalidate_partitions(named) == 0
        assert scans.invalidate_partitions(named) == 0

    def test_records_cached_again_are_found_again(self, engine):
        everywhere = set(range(engine.network.n_partitions))
        for __ in range(2):
            _warm(engine)
            for memo in (engine.fetch_memo, engine.gram_scan_memo):
                cached = len(memo)
                assert cached > 0
                assert memo.invalidate_partitions(everywhere) == cached
                assert len(memo) == 0

    def test_clear_empties_the_index(self, engine):
        _warm(engine)
        engine.clear_memos()
        everywhere = set(range(engine.network.n_partitions))
        for memo in (engine.fetch_memo, engine.gram_scan_memo):
            assert memo.invalidate_partitions(everywhere) == 0
            assert memo.invalidations == 0

    def test_vanished_object_is_not_counted(self, engine):
        """An object deleted behind the memo's back leaves only an index
        entry; dropping its partition must not count or trip on it."""
        _warm(engine)
        fetch = engine.fetch_memo
        oid = next(iter(fetch.records))
        key, partition_index = fetch.addresses[oid]
        peer = engine.network.peer(
            engine.network.partition(partition_index).peer_ids[0]
        )
        for entry in peer.store.lookup(key):
            peer.store.remove(entry)
        assert fetch.triples_for(peer, key, oid).triples == ()
        assert oid not in fetch.records
        others = sum(
            fetch.addresses[other][1] == partition_index
            for other in fetch.records
        )
        assert fetch.invalidate_partitions({partition_index}) == others


class TestAddressMap:
    """``oid -> (key, partition)`` outlives the records it sits beside."""

    def test_survives_writes_and_recovery_and_goes_with_clear(self):
        engine = QueryEngine.build(
            32, word_triples(), StoreConfig(seed=7, replication=2)
        )
        _warm(engine)
        fetch = engine.fetch_memo
        oid = next(iter(fetch.records))
        known = dict(fetch.addresses)
        assert known.keys() == fetch.records.keys()

        extra = Triple(oid, "word:lang", "en")
        engine.insert([extra])
        assert oid not in fetch.records  # the write dropped the record ...
        assert fetch.addresses == known  # ... and no address
        # The miss after the write re-reads the store and re-derives nothing.
        with mock.patch.object(
            type(engine.network.codec), "oid_key", side_effect=AssertionError
        ), mock.patch.object(
            type(engine.network), "partition_for", side_effect=AssertionError
        ):
            assert extra in engine.lookup(oid)
        engine.delete([extra])
        engine.fail_fraction(0.3, protect_partitions=True)
        engine.insert([extra], respect_online=True)
        assert engine.recover(repair=True).data_changed
        assert fetch.addresses == known

        engine.clear_memos()
        assert not fetch.addresses and not fetch.records

    def test_fetch_after_join_and_leave_equals_a_memo_free_engine(self):
        """Membership changes renumber partitions under the remembered
        indices; the engine's mutation check clears the map with the
        records, so the next fetch routes by the new trie."""
        from repro.overlay.membership import MembershipManager

        engine, reference = (
            QueryEngine.build(8, word_triples(), StoreConfig(seed=7), **options)
            for options in ({}, {"memoize": False})
        )
        oids = sorted({t.oid for t in word_triples()})

        def same_fetch():
            got, want = (
                each.ctx.fetch_objects(oids, delegating_peer_id=0, initiator_id=0)
                for each in (engine, reference)
            )
            assert got == want and len(got) == len(oids)

        for each in (engine, reference):
            _warm(each)
        same_fetch()
        before = dict(engine.fetch_memo.addresses)
        joined = []
        for each in (engine, reference):
            joined.append(MembershipManager(each.network).join())
            each.similar("apple", TEXT_ATTR, 1)  # a recorded operation
        same_fetch()
        after = engine.fetch_memo.addresses
        assert any(after[oid] != before[oid] for oid in oids)  # renumbered
        for each, peer in zip((engine, reference), joined):
            MembershipManager(each.network).leave(peer.peer_id)  # merges back
            each.similar("apple", TEXT_ATTR, 1)
        same_fetch()


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
        for oid in engine.fetch_memo.records:
            assert engine.fetch_memo.addresses[oid][1] not in repaired
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
