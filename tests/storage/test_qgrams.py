"""Unit tests for extended positional q-grams and q-samples."""

import pytest

from repro.core.errors import StorageError
from repro.storage.qgrams import (
    BEGIN_PAD,
    END_PAD,
    count_filter_threshold,
    extend,
    positional_qgrams,
    qgram_sample,
    qgram_tuples,
)

from tests.conftest import guaranteed_complete, qgram_set, shared_gram_count


class TestQGramTuples:
    def test_matches_dataclass_decomposition(self):
        for text in ("", "a", "abc", "hello world"):
            for q in (1, 2, 3, 4):
                tuples = qgram_tuples(text, q)
                grams = positional_qgrams(text, q)
                assert tuples == [(g.gram, g.position) for g in grams]

    def test_invalid_q(self):
        with pytest.raises(StorageError):
            qgram_tuples("ab", 0)


class TestExtend:
    def test_extension_shape(self):
        assert extend("ab", 3) == BEGIN_PAD * 2 + "ab" + END_PAD * 2

    def test_q1_no_padding(self):
        assert extend("ab", 1) == "ab"

    def test_invalid_q(self):
        with pytest.raises(StorageError):
            extend("ab", 0)


class TestPositionalQGrams:
    def test_gram_count_formula(self):
        # |s| + q - 1 grams for the extended decomposition.
        for text in ("a", "ab", "abcdef"):
            grams = positional_qgrams(text, 3)
            assert len(grams) == len(text) + 2

    def test_positions_sequential(self):
        grams = positional_qgrams("abc", 3)
        assert [g.position for g in grams] == [0, 1, 2, 3, 4]

    def test_source_length_recorded(self):
        for gram in positional_qgrams("abcd", 3):
            assert gram.source_length == 4

    def test_empty_string_still_has_grams(self):
        grams = positional_qgrams("", 3)
        assert len(grams) == 2

    def test_gram_width(self):
        assert all(len(g.gram) == 3 for g in positional_qgrams("hello", 3))


class TestQGramSample:
    def test_sample_size_is_d_plus_one(self):
        sample = qgram_sample("abcdefghijkl", 3, 2)
        assert len(sample) == 3

    def test_sample_non_overlapping(self):
        sample = qgram_sample("abcdefghijkl", 3, 2)
        positions = [g.position for g in sample]
        assert positions == [0, 3, 6]

    def test_short_string_falls_back_to_full_set(self):
        # 'apple' extended is 9 chars; d=5 needs 6 disjoint grams = 18.
        sample = qgram_sample("apple", 3, 5)
        full = positional_qgrams("apple", 3)
        assert sample == full

    def test_d_zero_single_gram(self):
        assert len(qgram_sample("abcdefgh", 3, 0)) == 1

    def test_negative_d_rejected(self):
        with pytest.raises(StorageError):
            qgram_sample("abc", 3, -1)

    def test_sample_survival_guarantee(self):
        # One edit destroys at most one disjoint gram: a string within
        # distance d shares at least one sampled gram.
        from repro.similarity.edit_distance import edit_distance

        s = "abcdefghijklmnop"
        t = "abXdefghijklmnop"  # one substitution
        d = edit_distance(s, t)
        sample = qgram_sample(s, 3, d)
        target_grams = qgram_set(t, 3)
        assert any(g.gram in target_grams for g in sample)


class TestCountFilter:
    def test_paper_formula(self):
        assert count_filter_threshold(10, 8, 3, 2) == 10 - 1 - 3

    def test_threshold_nonpositive_for_short_strings(self):
        assert count_filter_threshold(3, 3, 3, 2) <= 0

    def test_bound_holds_for_real_pairs(self):
        # Verify the Gravano bound on concrete edit pairs.
        from repro.similarity.edit_distance import edit_distance

        pairs = [
            ("overlay", "overlap"),
            ("similarity", "similarly"),
            ("structured", "strctured"),
            ("karlsruhe", "karlsruhe"),
        ]
        for a, b in pairs:
            d = edit_distance(a, b)
            threshold = count_filter_threshold(len(a), len(b), 3, max(d, 1))
            assert shared_gram_count(a, b, 3) >= threshold


class TestGuaranteedComplete:
    def test_long_enough_strings(self):
        assert guaranteed_complete(10, 3, 2)

    def test_short_strings_not_guaranteed(self):
        assert not guaranteed_complete(3, 3, 3)

    def test_boundary(self):
        # len >= 2 + (d-1)*q exactly.
        assert guaranteed_complete(5, 3, 2)
        assert not guaranteed_complete(4, 3, 2)
