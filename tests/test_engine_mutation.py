"""The engine's explicit write path and its delta maintenance.

Covers the mutable-store arc end to end: memo invalidation at the grain
of what insert/delete wrote (the written oid's record, the written gram
keys' tables — the rest of a written partition keeps answering), replicas
that missed a write and are brought back with and without repair,
in-place statistics patching, the replica-aware cost model under churn,
and the regression the arc fixes — failing and recovering a peer with
**zero net data change** must not drop a single memo entry (the old
wholesale path cleared everything).

Hand-made mutants these tests kill (each was applied to the memo code
and the named test failed): the record of a written ``OID`` entry not
dropped (``TestWriteGrain::test_written_object_is_rebuilt_...``); a
stamp moved for a replica that did not take the write
(``TestLaggingReplica::test_second_write_does_not_move_the_laggards_stamp``);
a table patched although the written replicas removed different entries
(``TestLaggingReplica::test_diverged_removal_drops_the_table_...``).
"""

import copy
from unittest import mock

import pytest

from repro.core.config import StoreConfig
from repro.engine import QueryEngine
from repro.overlay.replication import audit_replicas
from repro.storage.qgrams import PositionalQGram, qgram_tuples
from repro.storage.triple import Triple

from tests.conftest import TEXT_ATTR, word_triples
from tests.reference.gram_scan import candidate_oids_per_entry


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

    def test_delta_mode_drops_only_the_records_a_write_names(self, engine):
        _warm(engine)
        fetch = engine.fetch_memo
        cached = set(fetch.records)
        # A brand-new object changes no cached object: nothing is dropped.
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        assert set(fetch.records) == cached
        assert fetch.invalidations == 0
        assert engine.last_write().invalidated["fetch"] == 0
        # A triple more for a cached object: that record, no other.
        grown = sorted(cached)[0]
        engine.insert([Triple(grown, "word:lang", "en")])
        assert set(fetch.records) == cached - {grown}
        assert fetch.invalidations == 1
        assert engine.last_write().invalidated["fetch"] == 1

    def test_repeat_query_after_write_hits_retained_memos(self, engine):
        _warm(engine)
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        hits_before = engine.fetch_memo.hits
        engine.similar("banana", TEXT_ATTR, 1)
        engine.similar("cherry", TEXT_ATTR, 1)
        assert engine.fetch_memo.hits > hits_before

    def test_engine_write_does_not_trip_out_of_band_check(self, engine):
        _warm(engine)
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        retained = _memo_entries(engine)
        assert retained > 0
        # The write already accounted for its own token advance; the
        # out-of-band detector must not re-drop the survivors.
        assert engine.check_mutations() is False
        assert _memo_entries(engine) == retained


def _partition_mates(engine, oid: str) -> list[str]:
    """The other stored oids whose ``key(oid)`` falls in ``oid``'s partition."""
    network = engine.network

    def home(other: str) -> int:
        return network.partition_for(network.codec.oid_key(other)).index

    return [
        other
        for other in sorted({t.oid for t in word_triples()})
        if other != oid and home(other) == home(oid)
    ]


def _foreign_oid(engine, partition_index: int) -> str:
    """An oid nobody stores whose key ``partition_index`` owns."""
    network = engine.network
    return next(
        f"x:{i}"
        for i in range(10_000)
        if network.partition_for(network.codec.oid_key(f"x:{i}")).index
        == partition_index
    )


class TestWriteGrain:
    """A write drops what its entries name; the rest of the partition is
    carried to the new store version and keeps answering."""

    @pytest.fixture()
    def small(self):
        return QueryEngine.build(8, word_triples(), StoreConfig(seed=7))

    def test_written_object_is_rebuilt_and_its_partition_neighbour_is_a_hit(
        self, small
    ):
        from repro.query.operators import base
        from repro.storage.datastore import LocalDataStore

        written = "w:0000"
        neighbour = _partition_mates(small, written)[0]
        for oid in (written, neighbour):
            small.lookup(oid)
        fetch = small.fetch_memo
        extra = Triple(written, "word:lang", "en")
        small.insert([extra])
        assert written not in fetch.records and neighbour in fetch.records

        with mock.patch.object(
            base, "_rebuild_object", side_effect=AssertionError
        ), mock.patch.object(LocalDataStore, "lookup", side_effect=AssertionError):
            hits = fetch.hits
            assert small.lookup(neighbour)
            assert fetch.hits == hits + 1
        with mock.patch.object(
            base, "_rebuild_object", wraps=base._rebuild_object
        ) as rebuild:
            assert extra in small.lookup(written)
            assert rebuild.call_count == 1

        small.delete([extra])
        assert written not in fetch.records and neighbour in fetch.records
        assert extra not in small.lookup(written)

    def test_written_gram_table_is_patched_and_others_are_not_rescanned(
        self, small
    ):
        scans = small.gram_scan_memo
        for search in ("apple", "banana", "cherry"):
            small.similar(search, TEXT_ATTR, 1, strategy="qgrams")
        cached = set(scans._cache)
        batch = [Triple("x:new", TEXT_ATTR, "apples")]
        with mock.patch.object(
            type(scans), "_scan", side_effect=AssertionError
        ):
            small.insert(batch)
            found = small.similar("apple", TEXT_ATTR, 1, strategy="qgrams")
            assert "x:new" in {m.oid for m in found.matches}
            small.delete(batch)
            found = small.similar("apple", TEXT_ATTR, 1, strategy="qgrams")
            assert "x:new" not in {m.oid for m in found.matches}
            for search in ("banana", "cherry"):
                small.similar(search, TEXT_ATTR, 1, strategy="qgrams")
        assert set(scans._cache) == cached
        assert scans.invalidations == 0
        for signature, (stamp, *columns, pending) in scans._cache.items():
            partition, key, attribute, schema_level, gram = signature
            assert not pending  # every written table was asked again
            store = small.network.peer(
                small.network.partition(partition).peer_ids[0]
            ).store
            assert stamp[0] == store.version
            assert columns == scans._scan(
                store, key, gram, attribute, schema_level
            )

    def test_out_of_band_write_and_clear_empty_everything(self, small):
        _warm(small)
        fetch, scans = small.fetch_memo, small.gram_scan_memo
        assert len(fetch._stamps) > 0 and len(scans._stamps) > 0
        small.network.insert_triples([Triple("x:oob", TEXT_ATTR, "apricot")])
        assert small.check_mutations() is True
        for memo in (fetch, scans):
            assert len(memo) == 0 and len(memo._stamps) == 0
        assert not fetch.addresses
        _warm(small)
        small.clear_memos()
        for memo in (fetch, scans):
            assert len(memo) == 0 and len(memo._stamps) == 0

    def test_a_write_leaves_one_stamp_per_replica_version(self):
        """Whatever churn and repair left behind, the stamps a written
        partition holds after the write are at versions its replicas
        report — at most one each — so they cannot accumulate."""
        engine = QueryEngine.build(
            8, word_triples(), StoreConfig(seed=7, replication=2)
        )
        network = engine.network
        batch = [Triple("x:new", TEXT_ATTR, "apricot")]
        written = {
            network.partition_for(entry.key).index
            for entry in network.entry_factory.entries_for_all(batch)
        }
        for round_ in range(6):
            churn = round_ % 2 == 1
            if churn:
                engine.fail_fraction(0.3, protect_partitions=True)
            for write in (engine.insert, engine.delete):
                _warm(engine)
                write(batch, respect_online=True)
                assert engine.last_write().affected_partitions == len(written)
                for memo in (engine.fetch_memo, engine.gram_scan_memo):
                    for index in written:
                        held = [
                            stamp[0] for stamp in memo._stamps._held.get(index, ())
                        ]
                        reported = {
                            network.peer(peer_id).store.version
                            for peer_id in network.partition(index).peer_ids
                        }
                        assert set(held) <= reported
                        assert len(set(held)) == len(held)
            if churn:
                engine.recover(repair=round_ % 4 == 1)


class TestLaggingReplica:
    """A replica that was offline during a write and came back *without*
    repair serves its own stale object — what a memo-free engine would
    read from it — and what it answered never stands in for the replica
    that took the write, nor the other way round."""

    EXTRA = Triple("w:0000", "word:lang", "en")

    @pytest.fixture()
    def pair(self):
        engine = QueryEngine.build(
            8, word_triples(), StoreConfig(seed=7, replication=2)
        )
        network = engine.network
        home = network.partition_for(network.codec.oid_key(self.EXTRA.oid))
        fresh, lagging = home.peer_ids
        engine.lookup(self.EXTRA.oid)  # cached before the write
        return engine, home.index, network.peer(fresh), network.peer(lagging)

    @staticmethod
    def _ask(engine, answering, *silent, oid=EXTRA.oid) -> tuple:
        """``lookup`` with the ``silent`` replicas switched off behind the
        engine's back, so ``answering`` is the one contacted."""
        for peer in silent:
            peer.online = False
        try:
            return engine.lookup(oid)
        finally:
            for peer in silent:
                peer.online = True

    def _miss_the_write(self, engine, lagging, via: str) -> None:
        if via == "recover":
            engine.fail_peers([lagging.peer_id])
            engine.insert([self.EXTRA], respect_online=True)
            engine.recover(repair=False)
        else:
            lagging.online = False
            engine.insert([self.EXTRA], respect_online=True)
            lagging.online = True
        assert not audit_replicas(engine.network).consistent

    @pytest.mark.parametrize("via", ["recover", "flip"])
    @pytest.mark.parametrize("first", ["lagging", "fresh"])
    def test_each_replica_answers_for_itself_in_both_contact_orders(
        self, pair, via, first
    ):
        engine, __, fresh, lagging = pair
        self._miss_the_write(engine, lagging, via)
        order = [(lagging, fresh), (fresh, lagging)]
        if first == "fresh":
            order.reverse()
        for __ in range(2):  # the second round meets what the first cached
            for answering, silent in order:
                found = self._ask(engine, answering, silent)
                assert (self.EXTRA in found) == (answering is fresh)
                assert found  # the stale object is still an object
        assert engine.recover(repair=True).data_changed
        for answering, silent in order:
            assert self.EXTRA in self._ask(engine, answering, silent)

    def test_second_write_does_not_move_the_laggards_stamp(self, pair):
        """The laggard answers (its stale record is cached under its own
        stamp), then misses a second write to the partition that names
        another object: only the written replica's stamp may follow it."""
        engine, home, fresh, lagging = pair
        self._miss_the_write(engine, lagging, "flip")
        assert self.EXTRA not in self._ask(engine, lagging, fresh)
        lagging.online = False
        engine.insert(
            [Triple(_foreign_oid(engine, home), TEXT_ATTR, "apricot")],
            respect_online=True,
        )
        lagging.online = True
        assert self.EXTRA in self._ask(engine, fresh, lagging)
        assert self.EXTRA not in self._ask(engine, lagging, fresh)

    def test_a_shared_stamp_goes_with_the_replica_that_took_the_write(self, pair):
        """Before the write one stamp covers both replicas; afterwards it
        must cover the written one (its un-named records stay hits), and
        the laggard — still at the old version — is re-read."""
        engine, __, fresh, lagging = pair
        neighbour = _partition_mates(engine, self.EXTRA.oid)[0]
        engine.lookup(neighbour)
        self._miss_the_write(engine, lagging, "flip")
        fetch = engine.fetch_memo
        hits, misses = fetch.hits, fetch.misses
        assert self._ask(engine, fresh, lagging, oid=neighbour)
        assert (fetch.hits, fetch.misses) == (hits + 1, misses)
        assert self._ask(engine, lagging, fresh, oid=neighbour)
        assert (fetch.hits, fetch.misses) == (hits + 1, misses + 1)

    def test_repair_retires_the_stamps_of_the_replicas_it_rewrote(self):
        """Three replicas at three versions.  The middle one answers while
        stale; repair then lifts the last one *to the middle one's old
        version* — what the middle one answered must not speak for it."""
        engine = QueryEngine.build(
            9, word_triples(), StoreConfig(seed=7, replication=3)
        )
        network = engine.network
        first = "w:0000"
        second = _partition_mates(engine, first)[0]
        home = network.partition_for(network.codec.oid_key(first))
        fresh, middle, last = (network.peer(peer_id) for peer_id in home.peer_ids)
        one = Triple(first, "word:lang", "en")
        two = Triple(second, "word:lang", "de")
        last.online = False
        engine.insert([one], respect_online=True)
        middle.online = False
        engine.insert([two], respect_online=True)
        middle.online = last.online = True
        versions = [peer.store.version for peer in (fresh, middle, last)]
        assert versions[0] > versions[1] > versions[2]

        assert two not in self._ask(engine, middle, fresh, last, oid=second)
        assert engine.recover(repair=True).data_changed
        assert last.store.version == versions[1]
        for answering in (last, middle, fresh):
            silent = [peer for peer in (fresh, middle, last) if peer is not answering]
            assert two in self._ask(engine, answering, *silent, oid=second)
            assert one in self._ask(engine, answering, *silent, oid=first)

    def test_diverged_counters_keep_each_replicas_records_apart(self, pair):
        """Replicas that took different numbers of writes report different
        versions for good; each is still answered from its own rebuild and
        a write both take carries both stamps."""
        engine, home, fresh, lagging = pair
        self._miss_the_write(engine, lagging, "flip")
        engine.recover(repair=True)  # contents equal again, counters not
        foreign = Triple(_foreign_oid(engine, home), TEXT_ATTR, "apricot")
        lagging.online = False
        engine.insert([foreign], respect_online=True)
        engine.delete([foreign], respect_online=True)
        lagging.online = True
        assert audit_replicas(engine.network).consistent
        assert fresh.store.version != lagging.store.version
        fetch = engine.fetch_memo
        for answering, silent in ((fresh, lagging), (lagging, fresh)):
            assert self.EXTRA in self._ask(engine, answering, silent)
            engine.insert([foreign])  # both replicas take it
            hits = fetch.hits
            assert self.EXTRA in self._ask(engine, answering, silent)
            assert fetch.hits == hits + 1  # carried, not rebuilt
            engine.delete([foreign])

    def test_diverged_removal_drops_the_table_instead_of_patching_it(self):
        """Two strings of one object share their leading gram rows.  The
        laggard holds one of them, the fresh replica both; deleting the
        one the laggard lacks (beside a triple both hold, so both
        replicas are written) must not take the laggard's row out of the
        table built from it."""
        engine = QueryEngine.build(
            8, word_triples(), StoreConfig(seed=7, replication=2)
        )
        network = engine.network
        both = Triple("x:two", TEXT_ATTR, "apricot")
        only_fresh = Triple("x:two", TEXT_ATTR, "apricos")
        occurrences = [
            PositionalQGram(gram, position, len("apricot"))
            for gram, position in qgram_tuples("apricot", network.config.q)
            if gram == "apr"
        ]
        key = network.codec.attr_value_key(TEXT_ATTR, "apr")
        home = network.partition_for(key)
        __, lagging = (network.peer(peer_id) for peer_id in home.peer_ids)
        shared = next(  # stored on both replicas, with an entry at ``home``
            triple
            for triple in word_triples()
            if any(
                network.partition_for(entry.key).index == home.index
                for entry in network.entry_factory.entries_for(triple)
            )
        )
        engine.insert([both])
        lagging.online = False
        engine.insert([only_fresh], respect_online=True)
        lagging.online = True

        scans = engine.gram_scan_memo
        probe = (occurrences, TEXT_ATTR, False, 1, engine.ctx.filters)

        def asked_of_the_laggard() -> set[str]:
            return scans.candidate_oids(lagging, home.index, key, *probe)

        assert asked_of_the_laggard() == {"x:two"}
        version = lagging.store.version
        assert engine.delete([only_fresh, shared]) > 0
        assert lagging.store.version == version + 1  # written as well
        assert asked_of_the_laggard() == {"x:two"}
        assert candidate_oids_per_entry(lagging.store, key, *probe) == {"x:two"}


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

    def test_divergent_recovery_keeps_what_unrepaired_replicas_answered(self):
        """Repair rewrites the lagging replicas only: in a repaired
        partition a record stays valid exactly for the replicas repair
        left alone, and nothing anywhere is dropped eagerly."""
        engine = QueryEngine.build(
            32, word_triples(), StoreConfig(seed=7, replication=2)
        )
        network = engine.network
        _warm(engine)
        engine.fail_fraction(0.3, protect_partitions=True)
        # Writes the offline replicas miss: they diverge until repair.
        engine.insert(
            [Triple("x:new", TEXT_ATTR, "apricot")], respect_online=True
        )
        _warm(engine)
        fetch = engine.fetch_memo
        cached = set(fetch.records)
        versions = [peer.store.version for peer in network.peers]
        recovery = engine.recover(repair=True)
        assert recovery.data_changed
        assert recovery.entries_copied > 0
        assert set(fetch.records) == cached
        left_alone = {
            peer.peer_id
            for peer, version in zip(network.peers, versions)
            if peer.store.version == version
        }
        for oid, record in fetch.records.items():
            partition = network.partition(fetch.addresses[oid][1])
            assert record.stamp[0] in {
                network.peer(peer_id).store.version
                for peer_id in partition.peer_ids
                if peer_id in left_alone
            }

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
