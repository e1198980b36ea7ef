"""FetchObjectsMemo: cost transparency and the static-store contract.

The memo may only change wall-clock: reconstructed objects, match sets,
and every charged message/byte must be identical with it on or off, and
any store mutation must invalidate affected entries (enforced through
the per-entry version check even without an engine-level clear).
"""

import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.core.errors import ExecutionError
from repro.query.operators.base import FetchObjectsMemo, OperatorContext
from repro.query.operators.similar import similar
from repro.query.operators.topn import top_n_string_nn
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
