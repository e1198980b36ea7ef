"""Gram-peer scan memoization is cost- and result-transparent.

``GramScanMemo`` replaces the per-query posting scan + position/length
filters with probes into one cached positional table per gram key —
sorted ``source_length, position, oid`` columns; these tests pin that
the replacement changes nothing observable — matches, tallies, messages
— across strategies, distances, and filter configs.  (The table itself
is held equal to the per-entry rule by
``tests/properties/test_prop_gram_scan.py``.)

``TestWrittenTables`` holds the write side: a table a reported write
names is patched — at its next probe — to exactly what a rescan of the
written store would build, and dropped where a patch cannot be proven
right.  Hand-made
mutants it kills: a written table neither patched nor dropped; a row
inserted at the wrong end of its equal-``(length, position)`` run
(``at = lo`` and ``at = hi``); a removal that takes every copy of a
duplicated row, or the neighbouring oid's row; a missing row to remove
ignored instead of dropping the table; a table patched although its
stamp is not a written replica's.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.config import SimilarityStrategy
from repro.overlay.network import PartitionWrite
from repro.query.operators.base import OperatorContext
from repro.query.operators.similar import PENDING_ROWS, GramScanMemo, similar
from repro.similarity.filters import FilterConfig
from repro.storage.datastore import LocalDataStore
from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.qgrams import PositionalQGram, qgram_tuples
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


# -- written tables ---------------------------------------------------------------

KEY = "010011"
PARTITION = 3
ATTRIBUTES = ["a:title", "b:title"]  # two attributes colliding on KEY
GRAM = "ab"

#: Few distinct rows, so runs of equal ``(length, position)`` — and, through
#: the triple's value, exact duplicates of one row — are the common case.
written_entries = st.builds(
    lambda oid, attribute, value, position, length, schema: IndexEntry(
        KEY,
        EntryKind.SCHEMA_GRAM if schema else EntryKind.INSTANCE_GRAM,
        Triple(f"o:{oid}", attribute, value),
        gram=GRAM,
        position=position,
        source_length=length,
    ),
    st.integers(0, 3),
    st.sampled_from(ATTRIBUTES),
    st.sampled_from(["v", "w"]),
    st.integers(0, 2),
    st.integers(4, 5),
    st.booleans(),
)

SIGNATURES = [
    (PARTITION, KEY, attribute, schema_level, GRAM)
    for attribute, schema_level in [(a, False) for a in ATTRIBUTES] + [("", True)]
]


def _probe_all(memo, peer) -> None:
    """One lookup per signature: every table is cached (or validated)."""
    for __, key, attribute, schema_level, gram in SIGNATURES:
        memo.candidate_oids(
            peer, PARTITION, key, [PositionalQGram(gram, 0, 4)],
            attribute, schema_level, 9, FilterConfig(),
        )


def _write(memo, store, batch, remove: bool) -> None:
    """Apply ``batch`` to ``store`` and report it as the network would."""
    before = store.version
    if remove:
        flags = store.remove_bulk(batch)
        batch = [entry for entry, gone in zip(batch, flags) if gone]
    else:
        store.add_bulk(batch)
    if batch:
        memo.note_write(
            {PARTITION: PartitionWrite(batch, remove, {before: store.version}, True)}
        )


def _assert_tables_equal_a_rescan(memo, peer) -> None:
    """Probe every table — what splices the written rows in — without a
    miss, then compare with what ``_scan`` builds from the store."""
    assert set(memo._cache) == set(SIGNATURES)
    misses = memo.misses
    _probe_all(memo, peer)
    assert memo.misses == misses
    for signature in SIGNATURES:
        __, key, attribute, schema_level, gram = signature
        stamp, *columns, pending = memo._cache[signature]
        assert stamp[0] == peer.store.version and not pending
        assert columns == memo._scan(
            peer.store, key, gram, attribute, schema_level
        )


class TestWrittenTables:
    @settings(max_examples=300, deadline=None)
    @given(
        stored=st.lists(written_entries, max_size=8),
        steps=st.lists(
            st.tuples(st.booleans(), st.lists(written_entries, min_size=1, max_size=4)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_patched_tables_equal_a_rescan(self, stored, steps):
        """Random insert/delete batches (removals may name absent entries
        and entries twice), probed after every write or only after a few:
        each cached table answers as a hit and is then what ``_scan``
        builds from the store, stamped current."""
        store = LocalDataStore()
        store.add_bulk(stored)
        peer = SimpleNamespace(store=store, partition_index=PARTITION)
        memo = GramScanMemo(network=None)
        _probe_all(memo, peer)
        for step, (remove, batch) in enumerate(steps):
            _write(memo, store, batch, remove)
            if step % 3 != 1:  # let some writes pile up unprobed
                _assert_tables_equal_a_rescan(memo, peer)
        _assert_tables_equal_a_rescan(memo, peer)
        assert memo.invalidations == 0

    def test_emptied_and_refilled_and_both_ends_of_a_run(self):
        def entry(oid, position=1, length=4, value="v"):
            return IndexEntry(
                KEY, EntryKind.INSTANCE_GRAM, Triple(oid, ATTRIBUTES[0], value),
                gram=GRAM, position=position, source_length=length,
            )

        store = LocalDataStore()
        peer = SimpleNamespace(store=store, partition_index=PARTITION)
        memo = GramScanMemo(network=None)
        _probe_all(memo, peer)  # tables of an empty store
        signature = SIGNATURES[0]
        middle = [entry("o:3"), entry("o:5")]
        _write(memo, store, middle, remove=False)
        # First and last row of the table, and of the (4, 1) run.
        _write(memo, store, [entry("o:1"), entry("o:9")], remove=False)
        _write(memo, store, [entry("o:4", 0, 3), entry("o:4", 2, 6)], remove=False)
        # A duplicate row from another value of the same object.
        _write(memo, store, [entry("o:3", value="w")], remove=False)
        assert len(memo._cache[signature][4]) == 7  # queued, not spliced yet
        _assert_tables_equal_a_rescan(memo, peer)
        assert memo._cache[signature][3] == [
            "o:4", "o:1", "o:3", "o:3", "o:5", "o:9", "o:4"
        ]
        _write(memo, store, [entry("o:3")], remove=True)  # one copy only
        _assert_tables_equal_a_rescan(memo, peer)
        assert memo._cache[signature][3].count("o:3") == 1
        _write(memo, store, list(store), remove=True)
        _assert_tables_equal_a_rescan(memo, peer)
        assert memo._cache[signature][3] == []
        _write(memo, store, middle, remove=False)
        _assert_tables_equal_a_rescan(memo, peer)
        assert memo.misses == len(SIGNATURES) and memo.invalidations == 0

    def test_unprovable_patches_drop_the_table(self):
        def entry(oid):
            return IndexEntry(
                KEY, EntryKind.INSTANCE_GRAM, Triple(oid, ATTRIBUTES[0], "v"),
                gram=GRAM, position=1, source_length=4,
            )

        store = LocalDataStore()
        store.add_bulk([entry("o:1"), entry("o:2")])
        peer = SimpleNamespace(store=store, partition_index=PARTITION)
        signature = SIGNATURES[0]

        def cached():
            memo = GramScanMemo(network=None)
            _probe_all(memo, peer)
            return memo

        version = store.version
        # The row to remove is not in the table: found out at the next
        # probe, which rescans (the store is unchanged, so to the same rows).
        memo = cached()
        memo.note_write(
            {PARTITION: PartitionWrite([entry("o:7")], True, {version: version + 1}, True)}
        )
        store.version += 1
        _probe_all(memo, peer)
        assert (memo.invalidations, memo.misses) == (1, len(SIGNATURES) + 1)
        assert memo._cache[signature][3] == ["o:1", "o:2"]
        store.version -= 1
        # The table's stamp is not a written replica's version.
        memo = cached()
        memo.note_write(
            {PARTITION: PartitionWrite(
                [entry("o:7")], False, {version: version, version + 5: version + 6}, True
            )}
        )
        assert signature not in memo._cache
        # Written replicas applied different entries.
        memo = cached()
        memo.note_write(
            {PARTITION: PartitionWrite([entry("o:2")], True, {version: version + 1}, False)}
        )
        assert signature not in memo._cache
        # The other tables of the partition were carried all the same.
        assert {stamp[0] for stamp, *__ in memo._cache.values()} == {version + 1}
        # More rows queued than a table may hold unapplied.
        memo = cached()
        for written in range(PENDING_ROWS + 1):
            assert signature in memo._cache
            memo.note_write(
                {PARTITION: PartitionWrite(
                    [entry("o:7")], False, {version + written: version + written + 1}, True
                )}
            )
        assert signature not in memo._cache and memo.invalidations == 1
