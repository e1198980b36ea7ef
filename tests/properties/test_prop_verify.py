"""Property tests: the batched verifier is equivalent to the seed path.

The acceptance bar for the perf overhaul: for every ``(query, d)`` and
candidate multiset, :class:`BatchVerifier` must return exactly what the
per-candidate banded DP (``edit_distance_within``) returns — which is in
turn property-tested against brute-force ``edit_distance``.  The batch
suite here additionally interleaves single and batched calls so the
shared memo cannot drift, and replays the bible/paintings workload shape
(natural-language strings with heavy repeats) end-to-end.
"""

from hypothesis import given, settings, strategies as st

from repro.similarity.edit_distance import edit_distance
from repro.similarity.verify import BatchVerifier, VerifierPool
from tests.reference.kernel import edit_distance_within

texts = st.text(alphabet="abz ", max_size=12)
distances = st.integers(min_value=0, max_value=5)


class TestEquivalence:
    @settings(max_examples=300)
    @given(texts, st.lists(texts, max_size=20), distances)
    def test_batch_matches_banded_dp(self, query, candidates, d):
        verifier = BatchVerifier(query, d)
        result = verifier.distances(candidates)
        for candidate in candidates:
            assert result[candidate] == edit_distance_within(query, candidate, d)

    @settings(max_examples=200)
    @given(texts, st.lists(texts, max_size=12), distances)
    def test_batch_matches_brute_force(self, query, candidates, d):
        verifier = BatchVerifier(query, d)
        result = verifier.distances(candidates)
        for candidate in candidates:
            assert result[candidate] == min(
                edit_distance(query, candidate), d + 1
            )

    @settings(max_examples=200)
    @given(texts, st.lists(texts, min_size=1, max_size=12), distances)
    def test_interleaved_singles_and_batches(self, query, candidates, d):
        verifier = BatchVerifier(query, d)
        half = len(candidates) // 2
        for candidate in candidates[:half]:
            assert verifier.distance(candidate) == edit_distance_within(
                query, candidate, d
            )
        result = verifier.distances(candidates)
        for candidate in candidates:
            assert result[candidate] == edit_distance_within(query, candidate, d)
            assert verifier.within(candidate) == (
                edit_distance_within(query, candidate, d) <= d
            )

    @settings(max_examples=100)
    @given(st.lists(st.tuples(texts, distances), max_size=8), texts)
    def test_pool_keeps_pairs_independent(self, pairs, probe):
        pool = VerifierPool()
        for query, d in pairs:
            assert pool.get(query, d).distance(probe) == edit_distance_within(
                query, probe, d
            )
