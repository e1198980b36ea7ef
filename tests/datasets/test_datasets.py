"""Unit tests for the synthetic dataset generators."""

from statistics import fmean

import pytest

from repro.datasets.bible import (
    MAX_LENGTH as WORD_MAX,
    MIN_LENGTH as WORD_MIN,
    PAPER_MEAN_LENGTH as WORD_MEAN,
    TEXT_ATTRIBUTE,
    bible_triples,
    bible_words,
)
from repro.datasets.cars import (
    CAR_SCHEMA,
    DEALER_SCHEMA,
    DLRID_VARIANTS,
    car_database,
)
from repro.datasets.paintings import (
    MAX_LENGTH as TITLE_MAX,
    PAPER_MEAN_LENGTH as TITLE_MEAN,
    TITLE_ATTRIBUTE,
    painting_titles,
    painting_triples,
)
from repro.datasets.wordgen import WordGenerator, sample_lengths


class TestWordGenerator:
    def test_exact_lengths(self):
        generator = WordGenerator(seed=1)
        for length in (1, 3, 5, 9, 14):
            assert len(generator.word(length)) == length

    def test_deterministic(self):
        a = WordGenerator(seed=3).word(8)
        b = WordGenerator(seed=3).word(8)
        assert a == b

    def test_lowercase_letters_only(self):
        word = WordGenerator(seed=2).word(20)
        assert word.isalpha() and word.islower()

    def test_unique_words(self):
        words = WordGenerator(seed=4).unique_words([5] * 200)
        assert len(set(words)) == 200

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            WordGenerator(seed=0).word(0)

    def test_sample_lengths_respects_support(self):
        import random

        lengths = sample_lengths(random.Random(0), 500, [(3, 0.5), (7, 0.5)])
        assert set(lengths) <= {3, 7}


class TestBibleWords:
    def test_count_and_uniqueness(self):
        words = bible_words(3000, seed=2)
        assert len(words) == 3000
        assert len(set(words)) == 3000

    def test_length_envelope(self):
        words = bible_words(3000, seed=2)
        assert all(WORD_MIN <= len(w) <= WORD_MAX for w in words)

    def test_mean_close_to_paper(self):
        words = bible_words(20000, seed=0)
        assert abs(fmean(map(len, words)) - WORD_MEAN) < 0.15

    def test_deterministic(self):
        assert bible_words(100, seed=5) == bible_words(100, seed=5)

    def test_seed_changes_corpus(self):
        assert bible_words(100, seed=5) != bible_words(100, seed=6)

    def test_triples_shape(self):
        triples = bible_triples(50, seed=1)
        assert len(triples) == 50
        assert all(t.attribute == TEXT_ATTRIBUTE for t in triples)
        assert len({t.oid for t in triples}) == 50


class TestPaintingTitles:
    def test_count(self):
        assert len(painting_titles(2000, seed=1)) == 2000

    def test_length_envelope(self):
        titles = painting_titles(5000, seed=1)
        assert all(1 <= len(t) <= TITLE_MAX for t in titles)

    def test_mean_close_to_paper(self):
        titles = painting_titles(20000, seed=0)
        assert abs(fmean(map(len, titles)) - TITLE_MEAN) < 2.0

    def test_titles_contain_spaces(self):
        titles = painting_titles(1000, seed=1)
        with_spaces = sum(1 for t in titles if " " in t)
        assert with_spaces > 0.8 * len(titles)

    def test_short_tail_exists(self):
        titles = painting_titles(5000, seed=1)
        assert any(len(t) <= 10 for t in titles)

    def test_triples_shape(self):
        triples = painting_triples(20, seed=1)
        assert all(t.attribute == TITLE_ATTRIBUTE for t in triples)


class TestCarDatabase:
    def test_counts(self):
        db = car_database(n_cars=50, n_dealers=8, seed=1)
        assert db.car_count == 50
        assert db.dealer_count == 8
        assert db.triples

    def test_schema_heterogeneity_injected(self):
        db = car_database(n_cars=10, n_dealers=40, schema_typo_rate=0.5, seed=1)
        attributes = {a for row in db.dealer_rows for a in row}
        assert attributes & set(DLRID_VARIANTS[1:])
        assert DLRID_VARIANTS[0] in attributes

    def test_instance_typos_injected(self):
        clean = car_database(n_cars=100, typo_rate=0.0, seed=2)
        noisy = car_database(n_cars=100, typo_rate=1.0, seed=2)
        clean_names = {row["name"] for row in clean.car_rows}
        noisy_names = {row["name"] for row in noisy.car_rows}
        assert noisy_names - clean_names

    def test_dealer_references_valid(self):
        db = car_database(n_cars=30, n_dealers=5, seed=3)
        dealer_ids = {f"d{i:03d}" for i in range(5)}
        assert all(row["dealer"] in dealer_ids for row in db.car_rows)

    def test_rows_decompose_under_sequential_oids(self):
        db = car_database(n_cars=12, n_dealers=4, seed=6)
        objects = {}
        for triple in db.triples:
            objects.setdefault(triple.oid, set()).add((triple.attribute, triple.value))
        expected = {}
        relations = ((CAR_SCHEMA, db.car_rows), (DEALER_SCHEMA, db.dealer_rows))
        for schema, rows in relations:
            for serial, row in enumerate(rows):
                expected[f"{schema.name}:{serial:06d}"] = {
                    (f"{schema.name}:{a}", v) for a, v in row.items()
                }
        assert objects == expected

    def test_deterministic(self):
        a = car_database(n_cars=20, seed=4)
        b = car_database(n_cars=20, seed=4)
        assert a.car_rows == b.car_rows
