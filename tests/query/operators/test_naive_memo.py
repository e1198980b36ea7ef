"""Naive-broadcast memoization.

The memo's contract mirrors the incremental builder's: *cost
transparency*.  A memoized workload must produce the same matches and
charge the same messages and bytes — phase by phase, type by type — as
an unmemoized one; only the local comparison work is skipped.
"""


import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.datasets.bible import bible_triples
from repro.engine import QueryEngine
from repro.query.operators.base import OperatorContext
from repro.query.operators.naive import (
    NaiveWorkloadMemo,
    _compare_region,
    _region_column,
    naive_similar,
)
from repro.query.operators.topn import TOP_N_MAX_DISTANCE
from repro.similarity.kernels import MyersKernel, numpy_available
from repro.similarity.verify import BatchVerifier
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple
from evaluation.experiment import ALL_STRATEGIES, build_network
from evaluation.workload import make_workload, run_workload

from tests.conftest import TEXT_ATTR, build_word_network, word_triples
from tests.reference.kernel import ReferenceKernel, engines_verify_with
from tests.reference.naive_region import (
    assert_matches_reference,
    compare_region_per_entry,
)

#: Every word is stored once under ``TEXT_ATTR``: the region's compared rows.
TEXT_ROWS = [t for t in word_triples() if t.attribute == TEXT_ATTR]

#: A probe mix with deliberate repeats — the memo's bread and butter.
PROBES = [
    ("apple", 1), ("apple", 1), ("apple", 2), ("grape", 1),
    ("banana", 2), ("apple", 1), ("grape", 1), ("cherry", 3),
]


def run_probes(memo):
    """Replay PROBES on a fresh network; returns (tracer totals, matches)."""
    network = build_word_network(n_peers=48)
    ctx = OperatorContext(
        network, strategy=SimilarityStrategy.NAIVE, naive_memo=memo(network)
        if memo else None,
    )
    totals = []
    matches = []
    for index, (search, d) in enumerate(PROBES):
        network.tracer.reset()
        result = naive_similar(
            ctx, search, TEXT_ATTR, d, initiator_id=index % network.n_peers
        )
        snapshot = network.tracer.snapshot()
        totals.append(
            (snapshot.messages, snapshot.payload_bytes, snapshot.by_type,
             snapshot.by_phase)
        )
        matches.append([(m.oid, m.matched, m.distance) for m in result.matches])
    return totals, matches


class TestNaiveWorkloadMemo:
    def test_memoized_probes_charge_identical_costs(self):
        plain_totals, plain_matches = run_probes(memo=None)
        memo_totals, memo_matches = run_probes(memo=NaiveWorkloadMemo)
        assert memo_totals == plain_totals
        assert memo_matches == plain_matches

    def test_memo_hits_repeated_queries(self):
        network = build_word_network(n_peers=48)
        memo = NaiveWorkloadMemo(network)
        ctx = OperatorContext(
            network, strategy=SimilarityStrategy.NAIVE, naive_memo=memo
        )
        for __, (search, d) in enumerate(PROBES):
            naive_similar(ctx, search, TEXT_ATTR, d, initiator_id=0)
        # The memo computes once per (s, attribute) region at its band,
        # so every later distance on the same search string is a hit.
        unique = len({search for search, __ in PROBES})
        assert memo.misses == unique
        assert memo.hits == len(PROBES) - unique
        assert len(memo) == unique

    def test_store_mutation_invalidates_cached_outcomes(self):
        """The static-store contract is enforced, not just documented.

        Inserting data after a memoized query must invalidate the cached
        region comparison — a stale replay would silently miss the new
        match.
        """
        network = build_word_network(n_peers=48)
        memo = NaiveWorkloadMemo(network)
        ctx = OperatorContext(
            network, strategy=SimilarityStrategy.NAIVE, naive_memo=memo
        )
        before = naive_similar(ctx, "apple", TEXT_ATTR, 0, initiator_id=0)
        network.insert_triples([Triple("w:9999", TEXT_ATTR, "apple")])
        after = naive_similar(ctx, "apple", TEXT_ATTR, 0, initiator_id=0)
        assert memo.invalidations >= 1
        assert {m.oid for m in after.matches} == (
            {m.oid for m in before.matches} | {"w:9999"}
        )

    def test_clear_forces_recomputation(self):
        network = build_word_network(n_peers=48)
        memo = NaiveWorkloadMemo(network)
        ctx = OperatorContext(
            network, strategy=SimilarityStrategy.NAIVE, naive_memo=memo
        )
        naive_similar(ctx, "apple", TEXT_ATTR, 1, initiator_id=0)
        memo.clear()
        naive_similar(ctx, "apple", TEXT_ATTR, 1, initiator_id=0)
        assert memo.misses == 2

    def test_memoized_cell_matches_unmemoized_cell(self):
        """Whole-workload equivalence through the bench harness's replay:
        an engine with all three memos against a memo-free one."""
        triples = word_triples()
        strings = [
            str(t.value) for t in triples if t.attribute == TEXT_ATTR
        ]
        config = StoreConfig(seed=7)
        workload = make_workload(strings, 48, repetitions=2, seed=7)
        series = {}
        for memoize in (False, True):
            engine = QueryEngine(
                build_network(triples, 48, config), memoize=memoize
            )
            series[memoize] = {}
            for strategy in ALL_STRATEGIES:
                engine.network.tracer.reset()
                stats = run_workload(
                    engine.context(strategy=strategy), TEXT_ATTR, workload,
                    strategy,
                )
                series[memoize][strategy] = (
                    stats.messages, stats.payload_bytes, stats.by_type,
                    stats.by_phase,
                )
            memo_stats = engine.memo_stats()
        assert series[True] == series[False]
        # Every memo served the replay, so each one's transparency is
        # what the equality above checked.
        assert sorted(memo_stats) == ["fetch", "gram_scan", "naive"]
        assert all(stats["hits"] > 0 for stats in memo_stats.values())


class TestRegionColumn:
    """The query-independent column the memo retains per region."""

    def build(self, triples=None, kernel=None, **options):
        def make():
            return QueryEngine.build(
                48, triples or word_triples(), StoreConfig(seed=7),
                strategy="naive", **options,
            )

        if kernel is None:
            engine = make()
        else:
            with engines_verify_with(kernel):
                engine = make()
        network = engine.network
        prefix = network.codec.attr_prefix(TEXT_ATTR)
        region = {p.index for p in network.partitions_under(prefix)}
        return engine, prefix, region

    def test_write_rescans_only_the_written_partitions(self, region_scans):
        # Enough distinct strings that the attribute's region spans many
        # partitions and one short word's entries land in a few of them.
        engine, prefix, region = self.build(
            triples=bible_triples(400, seed=3)
        )
        network = engine.network
        engine.similar("apple", TEXT_ATTR, 1)
        column = engine.naive_memo.column(prefix, TEXT_ATTR, False)
        assert region_scans.call_count == len(region)
        # Another search string compares against the retained rows.
        engine.similar("grape", TEXT_ATTR, 2)
        assert region_scans.call_count == len(region)

        triple = Triple("w:9999", TEXT_ATTR, "apple")
        written = {
            network.partition_for(entry.key).index
            for entry in network.entry_factory.entries_for(triple)
        } & region
        assert written and written != region
        engine.insert([triple])
        after = engine.similar("apple", TEXT_ATTR, 1)
        assert engine.naive_memo.column(prefix, TEXT_ATTR, False) is column
        assert region_scans.call_count == len(region) + len(written)
        assert "w:9999" in {m.oid for m in after.matches}

        engine.delete([triple])
        gone = engine.similar("apple", TEXT_ATTR, 1)
        assert region_scans.call_count == len(region) + 2 * len(written)
        assert "w:9999" not in {m.oid for m in gone.matches}

    def test_out_of_band_write_rescans_one_store(self, region_scans):
        network = build_word_network(n_peers=48)
        memo = NaiveWorkloadMemo(network)
        ctx = OperatorContext(
            network, strategy=SimilarityStrategy.NAIVE, naive_memo=memo
        )
        naive_similar(ctx, "apple", TEXT_ATTR, 1, initiator_id=0)
        prefix = network.codec.attr_prefix(TEXT_ATTR)
        column = memo.column(prefix, TEXT_ATTR, False)
        scans = region_scans.call_count
        network.insert_triples([Triple("w:9999", TEXT_ATTR, "applf")])
        written = {
            network.partition_for(entry.key).index
            for entry in network.entry_factory.entries_for(
                Triple("w:9999", TEXT_ATTR, "applf")
            )
        } & {p.index for p in network.partitions_under(prefix)}
        result = naive_similar(ctx, "apple", TEXT_ATTR, 1, initiator_id=0)
        assert region_scans.call_count == scans + len(written)
        assert "w:9999" in {m.oid for m in result.matches}

    def test_clear_drops_the_columns(self):
        engine, prefix, region = self.build()
        engine.similar("apple", TEXT_ATTR, 1)
        column = engine.naive_memo.column(prefix, TEXT_ATTR, False)
        engine.clear_memos()
        assert engine.naive_memo.column(prefix, TEXT_ATTR, False) is not column

    def test_written_partitions_strings_leave_the_encoding(self):
        engine, prefix, region = self.build()
        triple = Triple("w:9999", TEXT_ATTR, "applesauce")
        engine.insert([triple])
        engine.similar("apple", TEXT_ATTR, 1)
        column = engine.naive_memo.column(prefix, TEXT_ATTR, False)
        assert "applesauce" in column.encoded().values
        engine.delete([triple])
        # Dropped with its partition's slice, before any query re-scans it.
        assert "applesauce" not in column.encoded().values
        engine.similar("apple", TEXT_ATTR, 1)
        assert "applesauce" not in column.encoded().values
        assert set(column.encoded().values) == {t.value for t in TEXT_ROWS}

    def test_only_a_retained_column_is_encoded(self):
        """Encoding a region costs more than one per-candidate pass over
        it, so a column built for a single comparison (no memo, or faults
        active) keeps its strings plain."""
        engine, prefix, region = self.build()
        engine.similar("apple", TEXT_ATTR, 1)
        retained = engine.naive_memo.column(prefix, TEXT_ATTR, False)
        assert (retained.encoded().codes is not None) == numpy_available()
        single = _region_column(None, prefix, TEXT_ATTR, False)
        contacted = [
            (engine.network.peer(p.peer_ids[0]), p.index)
            for p in engine.network.partitions_under(prefix)
        ]
        expected = compare_region_per_entry(
            contacted, "apple", TEXT_ATTR, 2, False, prefix
        )
        for column in (single, retained):
            assert_matches_reference(
                _compare_region(contacted, column, 2, BatchVerifier("apple", 2)),
                expected,
            )
        assert single.encoded().codes is None

    @pytest.mark.parametrize(
        "kernel",
        [ReferenceKernel(), MyersKernel(), None],
        ids=["reference", "myers", "None"],
    )
    def test_region_pass_stays_out_of_the_verifier_memo(self, kernel):
        """A region pass used to park one distance per compared string in
        the pooled ``(s, band)`` verifier; the pool is bounded by verifier
        count, not entries, so a long-lived service pinned |region| x 512
        strings.  The comparison outcome is what the naive memo retains."""
        engine, prefix, region = self.build(kernel=kernel)
        before = engine.verifier_stats()["memo_entries"]
        result = engine.similar("apple", TEXT_ATTR, 2)
        assert result.candidates_verified == len(TEXT_ROWS)
        assert engine.verifier_stats()["memo_entries"] == before
        # ... with or without the naive memo retaining the outcome.
        bare, __, ___ = self.build(kernel=kernel, memoize=False)
        bare.similar("apple", TEXT_ATTR, 2)
        assert bare.verifier_stats()["memo_entries"] == 0

    @pytest.mark.parametrize(
        "kernel", [ReferenceKernel(), MyersKernel()], ids=["reference", "myers"]
    )
    def test_forced_kernels_agree_on_the_naive_arm(self, kernel):
        def series(kernel):
            engine, __, ___ = self.build(kernel=kernel)
            out = []
            for search, d in PROBES:
                result = engine.similar(search, TEXT_ATTR, d)
                cost = engine.last_cost()
                out.append((
                    [(m.oid, m.matched, m.distance) for m in result.matches],
                    result.candidates_verified,
                    result.extras["max_peer_comparisons"],
                    cost.messages, cost.payload_bytes,
                    cost.by_type, cost.by_phase,
                ))
            return out

        assert series(kernel) == series(None)



class TestTieRule:
    """One oid holding two values of the attribute at the same distance
    from the search string, in one partition: the match names the value
    first in store order, at every radius, memoized or not.  ``"aab"``
    precedes ``"ab"`` in store order but not in the encoded column's
    shortest-first order, so an outcome that listed rows in any order
    but the store's would name ``"ab"``."""

    TIED = ("aab", "ab")  # both at distance 1 from "abb"

    @pytest.mark.parametrize("memoize", [True, False], ids=["memo", "single"])
    def test_first_value_in_store_order_is_matched(self, memoize):
        triples = word_triples() + [
            Triple("w:tie", TEXT_ATTR, value) for value in self.TIED
        ]
        engine = QueryEngine.build(
            16, triples, StoreConfig(seed=7), strategy="naive", memoize=memoize
        )
        network = engine.network
        (partition,) = {
            network.partition_for(network.codec.attr_value_key(TEXT_ATTR, value))
            for value in self.TIED
        }
        stored = [
            entry.triple.value
            for entry in network.peer(partition.peer_ids[0]).store.entries_of_kind(
                EntryKind.ATTR_VALUE
            )
            if entry.triple.oid == "w:tie"
        ]
        assert stored == ["aab", "ab"]
        for d in range(1, TOP_N_MAX_DISTANCE + 1):
            (tie,) = [
                m for m in engine.similar("abb", TEXT_ATTR, d).matches
                if m.oid == "w:tie"
            ]
            assert (tie.matched, tie.distance) == ("aab", 1), d


class TestDivergedReplicas:
    """Two replicas of one partition that each took one different write
    (one write each, so equal mutation counts) hold different version
    tokens; the retained column must answer each replica from its own
    rows."""

    def test_equal_version_replica_answers_its_own_rows(self):
        network = build_word_network(
            n_peers=32, config=StoreConfig(seed=7, replication=2)
        )
        codec = network.codec
        keys = {
            value: codec.attr_value_key(TEXT_ATTR, value)
            for value in ("applf", "applg")
        }
        (partition,) = {network.partition_for(key) for key in keys.values()}
        replicas = [network.peer(peer_id) for peer_id in partition.peer_ids[:2]]
        for peer, oid, value in zip(replicas, ("o:r0", "o:r1"), keys):
            for entry in network.entry_factory.entries_for(
                Triple(oid, TEXT_ATTR, value)
            ):
                if entry.key == keys[value]:
                    peer.store.add(entry)
        assert replicas[0].store.version != replicas[1].store.version
        column = NaiveWorkloadMemo(network).column(
            codec.attr_prefix(TEXT_ATTR), TEXT_ATTR, False
        )

        def oids_through(peer):
            comparison = _compare_region(
                [(peer, partition.index)], column, 1, BatchVerifier("apple", 1)
            )
            return {
                oid
                for rows in comparison.matches_at(1).values()
                for oid, __, ___ in rows
            }

        assert "o:r0" in oids_through(replicas[0])
        through_second = oids_through(replicas[1])
        assert "o:r1" in through_second
        assert "o:r0" not in through_second
