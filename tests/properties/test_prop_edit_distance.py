"""Property-based tests: edit distance is a metric, banded DP is exact."""

from hypothesis import given, settings, strategies as st

from repro.similarity.edit_distance import edit_distance
from tests.reference.kernel import edit_distance_within

words = st.text(alphabet="abcdef", max_size=12)


class TestMetricAxioms:
    @given(words)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(words, words)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(words, words)
    def test_positivity(self, a, b):
        distance = edit_distance(a, b)
        assert distance >= 0
        assert (distance == 0) == (a == b)

    @settings(max_examples=150)
    @given(words, words, words)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(words, words)
    def test_length_lower_bound(self, a, b):
        assert edit_distance(a, b) >= abs(len(a) - len(b))

    @given(words, words)
    def test_length_upper_bound(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))


class TestBandedAgreement:
    @given(words, words, st.integers(min_value=0, max_value=15))
    def test_banded_matches_exact(self, a, b, d):
        exact = edit_distance(a, b)
        banded = edit_distance_within(a, b, d)
        if exact <= d:
            assert banded == exact
        else:
            assert banded == d + 1

    @given(words, st.integers(min_value=0, max_value=5))
    def test_banded_identity(self, a, d):
        assert edit_distance_within(a, a, d) == 0
