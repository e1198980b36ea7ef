"""Unit tests for edit distance implementations."""

import pytest

from repro.similarity.edit_distance import edit_distance
from repro.similarity.verify import BatchVerifier
from tests.reference.kernel import edit_distance_within

KNOWN_PAIRS = [
    ("", "", 0),
    ("a", "", 1),
    ("", "abc", 3),
    ("abc", "abc", 0),
    ("kitten", "sitting", 3),
    ("flaw", "lawn", 2),
    ("intention", "execution", 5),
    ("apple", "apply", 1),
    ("apple", "ample", 1),
    ("book", "back", 2),
    ("overlay", "overlap", 1),
]


class TestEditDistance:
    @pytest.mark.parametrize("a,b,expected", KNOWN_PAIRS)
    def test_known_pairs(self, a, b, expected):
        assert edit_distance(a, b) == expected

    @pytest.mark.parametrize("a,b,expected", KNOWN_PAIRS)
    def test_symmetry(self, a, b, expected):
        assert edit_distance(b, a) == expected


class TestBandedVariant:
    @pytest.mark.parametrize("a,b,expected", KNOWN_PAIRS)
    def test_agrees_inside_band(self, a, b, expected):
        assert edit_distance_within(a, b, expected) == expected
        assert edit_distance_within(a, b, expected + 2) == expected

    @pytest.mark.parametrize("a,b,expected", KNOWN_PAIRS)
    def test_saturates_outside_band(self, a, b, expected):
        if expected > 0:
            assert edit_distance_within(a, b, expected - 1) == expected - 1 + 1

    def test_length_gap_short_circuit(self):
        assert edit_distance_within("ab", "abcdefgh", 3) == 4

    def test_negative_d(self):
        assert edit_distance_within("same", "same", -1) == 0
        assert edit_distance_within("a", "b", -1) == 1

    def test_within_distance_predicate(self):
        for a, b, expected in KNOWN_PAIRS:
            for d in range(4):
                assert BatchVerifier(a, d).within(b) is (expected <= d), (a, b, d)
        assert BatchVerifier("apple", 1).within("apply")
        assert not BatchVerifier("apple", 2).within("orange")

    def test_band_wide_enough_equals_exact(self):
        words = ["overlay", "overload", "similar", "dissimilar", "peer"]
        for a in words:
            for b in words:
                exact = edit_distance(a, b)
                assert edit_distance_within(a, b, 20) == exact
