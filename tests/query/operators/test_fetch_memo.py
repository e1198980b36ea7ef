"""FetchObjectsMemo: cost transparency and validity under writes.

The memo may only change wall-clock: reconstructed objects, match sets,
and every charged message/byte must be identical with it on or off.  A
store mutation nobody reports invalidates every record of the written
store (the per-record version check); a *reported* write
(``note_write``) drops the records its ``OID`` entries name and nothing
else.
"""

from unittest import mock

import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.core.errors import ExecutionError
from repro.query.operators.base import (
    DEAD_STAMP,
    FetchObjectsMemo,
    OperatorContext,
    VersionStamps,
)
from repro.query.operators.similar import similar
from repro.query.operators.topn import top_n_string_nn
from repro.storage.datastore import LocalDataStore
from repro.storage.triple import Triple

from tests.conftest import TEXT_ATTR, WORDS, build_word_network

QUERIES = [("apple", 1), ("grape", 2), ("apple", 1), ("berry", 1)]


def fresh_ctx(memoize: bool):
    network = build_word_network(n_peers=32, config=StoreConfig(seed=11))
    memo = FetchObjectsMemo(network) if memoize else None
    return OperatorContext(
        network, strategy=SimilarityStrategy.QGRAM, fetch_memo=memo
    )


class TestCostTransparency:
    def test_similar_series_identical(self):
        plain = fresh_ctx(memoize=False)
        memoized = fresh_ctx(memoize=True)
        for ctx in (plain, memoized):
            ctx.network.tracer.reset()
        for search, d in QUERIES:
            for ctx in (plain, memoized):
                result = similar(ctx, search, TEXT_ATTR, d, initiator_id=3)
                result.matches  # noqa: B018 - force evaluation
        plain_snap = plain.network.tracer.snapshot()
        memo_snap = memoized.network.tracer.snapshot()
        assert plain_snap.messages == memo_snap.messages
        assert plain_snap.payload_bytes == memo_snap.payload_bytes
        assert plain_snap.by_type == memo_snap.by_type
        assert memoized.fetch_memo.hits > 0  # repeats actually replayed

    def test_matches_identical(self):
        plain = fresh_ctx(memoize=False)
        memoized = fresh_ctx(memoize=True)
        for search, d in QUERIES:
            a = similar(plain, search, TEXT_ATTR, d, initiator_id=5)
            b = similar(memoized, search, TEXT_ATTR, d, initiator_id=5)
            assert [(m.oid, m.matched, m.distance, m.triples) for m in a.matches] == [
                (m.oid, m.matched, m.distance, m.triples) for m in b.matches
            ]

    def test_topn_deepening_hits_memo(self):
        ctx = fresh_ctx(memoize=True)
        top_n_string_nn(ctx, TEXT_ATTR, "apple", 5, initiator_id=1)
        assert ctx.fetch_memo.hits > 0


class TestInvalidation:
    def test_version_bump_recomputes(self):
        ctx = fresh_ctx(memoize=True)
        first = similar(ctx, "apple", TEXT_ATTR, 0, initiator_id=2)
        oid = first.matches[0].oid
        assert len(ctx.fetch_memo) > 0
        # Grow the matched object out-of-band: the oid peer's store
        # version changes, so the cached rebuild must not be replayed.
        ctx.network.insert_triples([Triple(oid, "word:lang", "en")])
        again = similar(ctx, "apple", TEXT_ATTR, 0, initiator_id=2)
        match = next(m for m in again.matches if m.oid == oid)
        assert any(t.attribute == "word:lang" for t in match.triples)
        assert ctx.fetch_memo.invalidations > 0

    def test_clear(self):
        ctx = fresh_ctx(memoize=True)
        similar(ctx, "apple", TEXT_ATTR, 1, initiator_id=2)
        assert len(ctx.fetch_memo) > 0
        ctx.fetch_memo.clear()
        assert len(ctx.fetch_memo) == 0


class TestVersionStamps:
    """``carry`` follows the replicas a write lists, and only those."""

    def test_written_and_unwritten_replicas(self):
        stamps = VersionStamps()
        shared, laggard = stamps.stamp(0, 5), stamps.stamp(0, 2)
        assert stamps.stamp(0, 5) is shared and stamps.stamp(1, 5) is not shared
        # Of the replicas at 5 some took the write (5 -> 6 is what the
        # network reports then); one lagged already and still does.
        stamps.carry(0, {5: 6, 2: 2})
        assert shared == [6] and laggard == [2]
        assert stamps.stamp(0, 6) is shared and stamps.stamp(0, 2) is laggard
        assert stamps.stamp(0, 5) is not shared  # a replica left at 5 starts anew
        assert stamps.stamp(1, 5) == [5]  # other partitions are not touched

    def test_a_stamp_no_replica_reported_dies(self):
        """Even if some replica arrives at its number with this write."""
        stamps = VersionStamps()
        unreachable, live = stamps.stamp(0, 5), stamps.stamp(0, 7)
        stamps.carry(0, {4: 5, 7: 8})
        assert unreachable == [DEAD_STAMP] and live == [8]
        assert stamps.stamp(0, 5) is not unreachable
        stamps.carry(0, {})  # a write that reports no replica still held
        assert live == [DEAD_STAMP] and len(stamps) == 0


class TestReportedWrite:
    def test_only_the_named_records_are_dropped(self):
        network = build_word_network(n_peers=4, config=StoreConfig(seed=11))
        memo = FetchObjectsMemo(network)
        ctx = OperatorContext(network, fetch_memo=memo)
        oids = [f"w:{index:04d}" for index in range(len(WORDS))]
        before = ctx.fetch_objects(oids, 0, 0)
        assert len(memo) == len(oids) and memo.misses == len(oids)

        grown = oids[3]
        batch = [
            Triple(grown, "word:lang", "en"),  # one more triple for a cached object
            Triple("w:9999", TEXT_ATTR, "apple"),  # a new object beside them
        ]
        entries = list(network.entry_factory.entries_for_all(batch))
        applied, writes = network.apply_entries(entries)
        assert applied == len(entries)
        # Entries of every kind landed on partitions that hold records.
        assert {memo.addresses[oid][1] for oid in oids} <= writes.keys()
        assert memo.note_write(writes) == 1
        assert grown not in memo.records and len(memo) == len(oids) - 1

        with mock.patch.object(LocalDataStore, "lookup", side_effect=AssertionError):
            others = [oid for oid in oids if oid != grown]
            assert ctx.fetch_objects(others, 0, 0) == {
                oid: before[oid] for oid in others
            }
        assert memo.misses == len(oids) and memo.invalidations == 1
        assert batch[0] in ctx.fetch_objects([grown], 0, 0)[grown]
        assert memo.misses == len(oids) + 1

    def test_an_unreported_write_fails_every_record_of_its_stores(self):
        ctx = fresh_ctx(memoize=True)
        memo = ctx.fetch_memo
        oids = [f"w:{index:04d}" for index in range(len(WORDS))]
        ctx.fetch_objects(oids, 0, 0)
        ctx.network.apply_entries(
            list(ctx.network.entry_factory.entries_for(Triple("w:9999", TEXT_ATTR, "apple")))
        )  # the report is thrown away
        written = {
            oid
            for oid in oids
            if memo.records[oid].stamp[0]
            != ctx.network.peer(
                ctx.network.partition(memo.addresses[oid][1]).peer_ids[0]
            ).store.version
        }
        assert written
        ctx.fetch_objects(oids, 0, 0)
        assert memo.invalidations == len(written)


class TestKeyCollision:
    @pytest.mark.parametrize("memoize", [False, True])
    def test_two_requested_oids_sharing_a_key_raise(self, memoize):
        """Six key bits cannot keep 28 oids apart.  Each oid of a
        colliding pair is fetched alone first, so with the memo both
        addresses come from its map when the pair is requested."""
        network = build_word_network(
            n_peers=8, config=StoreConfig(seed=11, key_bits=6, attr_bits=2)
        )
        by_key: dict[str, list[str]] = {}
        for index in range(len(WORDS)):
            oid = f"w:{index:04d}"
            by_key.setdefault(network.codec.oid_key(oid), []).append(oid)
        pair = next(oids[:2] for oids in by_key.values() if len(oids) > 1)
        ctx = OperatorContext(
            network, fetch_memo=FetchObjectsMemo(network) if memoize else None
        )
        for oid in pair:
            assert list(ctx.fetch_objects([oid], 0, 0)) == [oid]
        with pytest.raises(ExecutionError, match="collision"):
            ctx.fetch_objects(pair, 0, 0)
