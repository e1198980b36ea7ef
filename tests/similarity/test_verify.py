"""Unit tests for the batched verifier (similarity/verify.py)."""

import pytest

from repro.similarity.edit_distance import edit_distance_within
from repro.similarity.verify import BatchVerifier, VerifierPool

WORDS = [
    "apple", "apply", "ample", "maple", "apples", "applet", "appl", "aple",
    "grape", "grapes", "grace", "trace", "track", "crack", "",
    "banana", "band", "bandana", "bananas", "applicable", "application",
]


def reference(query, candidates, d):
    return {c: edit_distance_within(query, c, d) for c in candidates}


class TestBatchedDistances:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
    def test_matches_reference_on_words(self, d):
        verifier = BatchVerifier("apple", d)
        assert verifier.distances(WORDS) == reference("apple", WORDS, d)

    def test_sentinel_is_d_plus_one(self):
        verifier = BatchVerifier("apple", 1)
        assert verifier.distances(["zzzzz"])["zzzzz"] == 2

    def test_exact_match_zero(self):
        verifier = BatchVerifier("apple", 2)
        assert verifier.distances(["apple"])["apple"] == 0

    def test_empty_query(self):
        verifier = BatchVerifier("", 2)
        assert verifier.distances(["", "a", "ab", "abc"]) == {
            "": 0, "a": 1, "ab": 2, "abc": 3,
        }

    def test_empty_candidate_list(self):
        assert BatchVerifier("apple", 2).distances([]) == {}

    def test_duplicates_collapse(self):
        verifier = BatchVerifier("apple", 2)
        result = verifier.distances(["apply", "apply", "apply"])
        assert result == {"apply": 1}
        assert verifier.computed == 1

    def test_shared_prefix_run(self):
        # A long sorted run sharing prefixes exercises the row stack.
        candidates = ["app", "appl", "apple", "apples", "applesauce", "applet"]
        verifier = BatchVerifier("apple", 3)
        assert verifier.distances(candidates) == reference(
            "apple", candidates, 3
        )

    def test_dead_prefix_rejects_extensions(self):
        # 'zzz' kills the band for d=1; every extension must still be the
        # correct sentinel.
        candidates = ["zzza", "zzzb", "zzzzzz", "zzz"]
        verifier = BatchVerifier("apple", 1)
        assert all(v == 2 for v in verifier.distances(candidates).values())


class TestMemoAndSingles:
    def test_single_path_matches_reference(self):
        verifier = BatchVerifier("grape", 2)
        for word in WORDS:
            assert verifier.distance(word) == edit_distance_within(
                "grape", word, 2
            )

    def test_within_predicate(self):
        verifier = BatchVerifier("grape", 2)
        assert verifier.within("grapes")
        assert not verifier.within("banana")

    def test_batch_seeds_single_memo(self):
        verifier = BatchVerifier("apple", 2)
        verifier.distances(WORDS)
        computed = verifier.computed
        for word in WORDS:
            verifier.distance(word)
        assert verifier.computed == computed

    def test_single_seeds_batch_memo(self):
        verifier = BatchVerifier("apple", 2)
        first = verifier.distance("apply")
        assert verifier.distances(["apply"]) == {"apply": first}
        assert verifier.computed == 1

    def test_length_filter_counts_no_dp(self):
        verifier = BatchVerifier("apple", 1)
        verifier.distances(["intercontinental"])
        assert verifier.computed == 0


class TestVerifierPool:
    def test_same_pair_shares_instance(self):
        pool = VerifierPool()
        assert pool.get("apple", 2) is pool.get("apple", 2)
        assert len(pool) == 1

    def test_distinct_pairs_are_distinct(self):
        pool = VerifierPool()
        assert pool.get("apple", 2) is not pool.get("apple", 3)
        assert pool.get("apple", 2) is not pool.get("grape", 2)
        assert len(pool) == 3

    def test_hit_miss_counters(self):
        pool = VerifierPool()
        pool.get("apple", 2)
        pool.get("apple", 2)
        pool.get("grape", 2)
        assert pool.misses == 2
        assert pool.hits == 1

    def test_lru_eviction_beyond_limit(self):
        pool = VerifierPool(max_verifiers=2)
        pool.get("a", 1)
        pool.get("b", 1)
        pool.get("a", 1)  # refresh 'a' — 'b' becomes LRU
        pool.get("c", 1)  # evicts 'b'
        assert len(pool) == 2
        assert pool.evictions == 1
        first_b = pool.get("b", 1)  # recomputed, not a correctness event
        assert first_b.distance("b") == 0
        assert pool.evictions == 2  # 'a' went this time

    def test_eviction_is_safe_to_recompute(self):
        pool = VerifierPool(max_verifiers=1)
        before = pool.get("apple", 2).distances(WORDS)
        pool.get("grape", 2)  # evicts the 'apple' verifier
        after = pool.get("apple", 2).distances(WORDS)
        assert after == before

    def test_counters_survive_eviction(self):
        pool = VerifierPool(max_verifiers=1)
        pool.get("apple", 2).distances(WORDS)
        computed = pool.counters.computed
        assert computed > 0
        pool.get("grape", 2).distances(WORDS)
        assert pool.counters.computed > computed

    def test_stats_payload(self):
        pool = VerifierPool(max_verifiers=8)
        pool.get("apple", 2).distances(WORDS)
        stats = pool.stats()
        assert stats["verifiers"] == 1
        assert stats["max_verifiers"] == 8
        assert stats["memo_entries"] == len(set(WORDS))
        assert stats["misses"] == 1
        assert stats["kernel"] == pool.kernel.name
        assert stats["computed"] > 0

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            VerifierPool(max_verifiers=0)

    def test_pool_kernel_is_shared_by_verifiers(self):
        from tests.reference.kernel import ReferenceKernel

        kernel = ReferenceKernel()
        pool = VerifierPool(kernel=kernel)
        assert pool.get("apple", 2).kernel is kernel
