"""Gram-peer scan memoization is cost- and result-transparent.

``GramScanMemo`` replaces the per-query posting scan + position/length
filters with probes into one cached ``source_length -> position ->
oids`` table per gram key; these tests pin that the replacement changes
nothing observable — matches, tallies, messages — across strategies,
distances, and filter configs.  (The table itself is held equal to the
per-entry rule by ``tests/properties/test_prop_gram_scan.py``.)
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import SimilarityStrategy
from repro.query.operators.base import OperatorContext
from repro.query.operators.similar import GramScanMemo, similar
from repro.similarity.filters import FilterConfig
from repro.storage.qgrams import qgram_tuples
from repro.storage.triple import Triple

from tests.conftest import TEXT_ATTR, WORDS, build_word_network

PROBES = [
    ("apple", 0), ("apple", 1), ("apple", 2), ("apple", 3),
    ("grape", 1), ("banana", 2), ("overlay", 1), ("apple", 1),
]


def run_probes(strategy, memoize, filters=None):
    network = build_word_network(n_peers=48)
    ctx = OperatorContext(
        network,
        strategy=strategy,
        filters=filters if filters is not None else FilterConfig(),
        gram_scan_memo=GramScanMemo(network) if memoize else None,
    )
    observations = []
    for index, (search, d) in enumerate(PROBES):
        network.tracer.reset()
        result = similar(
            ctx, search, TEXT_ATTR, d, initiator_id=index % network.n_peers
        )
        snapshot = network.tracer.snapshot()
        observations.append(
            (
                [(m.oid, m.matched, m.distance) for m in result.matches],
                result.candidates_after_filters,
                result.candidates_verified,
                snapshot.messages,
                snapshot.payload_bytes,
                snapshot.by_type,
                snapshot.by_phase,
            )
        )
    return ctx.gram_scan_memo, observations


class TestGramScanMemo:
    def test_qgram_probes_identical_with_memo(self):
        memo, memoized = run_probes(SimilarityStrategy.QGRAM, memoize=True)
        __, plain = run_probes(SimilarityStrategy.QGRAM, memoize=False)
        assert memoized == plain
        assert memo.hits > 0

    def test_qsample_probes_identical_with_memo(self):
        memo, memoized = run_probes(SimilarityStrategy.QSAMPLE, memoize=True)
        __, plain = run_probes(SimilarityStrategy.QSAMPLE, memoize=False)
        assert memoized == plain

    @settings(max_examples=10, deadline=None)
    @given(
        use_position=st.booleans(),
        use_length=st.booleans(),
        word_index=st.integers(0, len(WORDS) - 1),
        d=st.integers(0, 3),
    )
    def test_filter_configs_identical_with_memo(
        self, use_position, use_length, word_index, d
    ):
        """The table replay is exact for every filter subset."""
        filters = FilterConfig(use_position=use_position, use_length=use_length)
        search = WORDS[word_index]

        def one(memoize):
            network = build_word_network(n_peers=32)
            ctx = OperatorContext(
                network,
                strategy=SimilarityStrategy.QGRAM,
                filters=filters,
                gram_scan_memo=GramScanMemo(network) if memoize else None,
            )
            result = similar(ctx, search, TEXT_ATTR, d, initiator_id=0)
            return (
                [(m.oid, m.distance) for m in result.matches],
                result.candidates_after_filters,
                network.tracer.snapshot().messages,
            )

        assert one(True) == one(False)

    def test_store_mutation_invalidates_cached_scans(self):
        network = build_word_network(n_peers=32)
        memo = GramScanMemo(network)
        ctx = OperatorContext(
            network, strategy=SimilarityStrategy.QGRAM, gram_scan_memo=memo
        )
        before = similar(ctx, "apple", TEXT_ATTR, 0, initiator_id=0)
        network.insert_triples([Triple("w:9999", TEXT_ATTR, "apple")])
        after = similar(ctx, "apple", TEXT_ATTR, 0, initiator_id=0)
        assert memo.invalidations >= 1
        assert {m.oid for m in after.matches} == (
            {m.oid for m in before.matches} | {"w:9999"}
        )

    def test_one_scan_serves_every_query_shape(self):
        """Distance, filter subset and the query's own gram positions are
        replay arguments, not part of what is cached."""
        network = build_word_network(n_peers=32)
        memo = GramScanMemo(network)

        def ask(search, d, **filters):
            ctx = OperatorContext(
                network, strategy=SimilarityStrategy.QGRAM,
                filters=FilterConfig(**filters), gram_scan_memo=memo,
            )
            similar(ctx, search, TEXT_ATTR, d, initiator_id=0)

        ask("apple", 1)
        scanned = memo.misses
        ask("apple", 3)
        ask("apple", 1, use_position=False, use_length=False)
        ask("xapple", 1)  # the inner grams of "apple" again, one position on
        new_grams = {g for g, __ in qgram_tuples("xapple", network.config.q)} - {
            g for g, __ in qgram_tuples("apple", network.config.q)
        }
        assert memo.misses == scanned + len(new_grams)
        assert len(memo) == memo.misses

    def test_clear_resets_cache(self):
        network = build_word_network(n_peers=32)
        memo = GramScanMemo(network)
        ctx = OperatorContext(
            network, strategy=SimilarityStrategy.QGRAM, gram_scan_memo=memo
        )
        similar(ctx, "apple", TEXT_ATTR, 1, initiator_id=0)
        assert len(memo) > 0
        memo.clear()
        assert len(memo) == 0
