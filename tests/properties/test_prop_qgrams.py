"""Property-based tests: q-gram decompositions and the count bound."""

from hypothesis import given, settings, strategies as st

from repro.similarity.edit_distance import edit_distance
from repro.storage.qgrams import (
    count_filter_threshold,
    extend,
    positional_qgrams,
    qgram_sample,
    qgram_set,
)

from tests.conftest import shared_gram_count


def sample_fell_back(text: str, q: int, d: int) -> bool:
    """True when qgram_sample returned the full set (string too short)."""
    return len(extend(text, q)) < q * (d + 1)

words = st.text(alphabet="abcdef", max_size=14)
qs = st.integers(min_value=2, max_value=4)
ds = st.integers(min_value=0, max_value=4)


class TestDecomposition:
    @given(words, qs)
    def test_gram_count_formula(self, text, q):
        assert len(positional_qgrams(text, q)) == len(text) + q - 1

    @given(words, qs)
    def test_gram_width_uniform(self, text, q):
        assert all(len(g.gram) == q for g in positional_qgrams(text, q))

    @given(words, qs)
    def test_positions_strictly_increasing(self, text, q):
        positions = [g.position for g in positional_qgrams(text, q)]
        assert positions == list(range(len(positions)))

    @given(words, qs, ds)
    def test_sample_is_subset_of_full_set(self, text, q, d):
        full = {(g.gram, g.position) for g in positional_qgrams(text, q)}
        sample = {(g.gram, g.position) for g in qgram_sample(text, q, d)}
        assert sample <= full

    @given(words, qs, ds)
    def test_sample_grams_disjoint_or_full_fallback(self, text, q, d):
        sample = qgram_sample(text, q, d)
        if sample_fell_back(text, q, d):
            assert sample == positional_qgrams(text, q)
        else:
            assert len(sample) == d + 1
            positions = [g.position for g in sample]
            assert all(
                later - earlier >= q
                for earlier, later in zip(positions, positions[1:])
            )


class TestCountBound:
    @settings(max_examples=200)
    @given(words, words, qs)
    def test_gravano_bound(self, a, b, q):
        """Strings within edit distance d share >= the threshold grams."""
        d = edit_distance(a, b)
        if d == 0:
            return
        threshold = count_filter_threshold(len(a), len(b), q, d)
        assert shared_gram_count(a, b, q) >= threshold

    @settings(max_examples=200)
    @given(words, words, qs, ds)
    def test_sample_survival(self, a, b, q, d):
        """If edit(a,b) <= d, some sampled gram of a occurs in b's full set.

        Holds whenever the sample could supply d+1 disjoint grams (else
        the implementation falls back to the full set, making the check
        equivalent to the count bound with threshold >= 1 or vacuous).
        """
        if edit_distance(a, b) > d:
            return
        if sample_fell_back(a, q, d):
            return  # full-set fallback; covered by the count-bound test
        sample = qgram_sample(a, q, d)
        target = qgram_set(b, q)
        assert any(g.gram in target for g in sample)

    @settings(max_examples=200)
    @given(words, words, qs, ds)
    def test_sample_survivor_position_shift_bounded(self, a, b, q, d):
        """A surviving sampled gram appears within +/- d positions."""
        if edit_distance(a, b) > d:
            return
        if sample_fell_back(a, q, d):
            return
        sample = qgram_sample(a, q, d)
        b_grams = positional_qgrams(b, q)
        assert any(
            g.gram == other.gram and abs(g.position - other.position) <= d
            for g in sample
            for other in b_grams
        )
