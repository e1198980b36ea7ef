"""Unit tests for string range selections, prefix ranges included."""

import pytest

from repro.core.errors import ExecutionError
from repro.query.operators.base import OperatorContext
from repro.query.operators.string_range import select_string_range

from tests.conftest import TEXT_ATTR, WORDS, build_word_network


@pytest.fixture(scope="module")
def ctx():
    return OperatorContext(build_word_network(n_peers=48))


class TestStringRange:
    def test_inclusive_range(self, ctx):
        triples = select_string_range(ctx, TEXT_ATTR, "apple", "banana")
        expected = sorted(w for w in WORDS if "apple" <= w <= "banana")
        assert [t.value for t in triples] == expected

    def test_strict_bounds(self, ctx):
        triples = select_string_range(
            ctx, TEXT_ATTR, "apple", "banana", lo_strict=True, hi_strict=True
        )
        expected = sorted(w for w in WORDS if "apple" < w < "banana")
        assert [t.value for t in triples] == expected

    def test_empty_range_rejected(self, ctx):
        with pytest.raises(ExecutionError):
            select_string_range(ctx, TEXT_ATTR, "z", "a")

    def test_point_range(self, ctx):
        triples = select_string_range(ctx, TEXT_ATTR, "cherry", "cherry")
        assert [t.value for t in triples] == ["cherry"]

    def test_full_range(self, ctx):
        triples = select_string_range(ctx, TEXT_ATTR, "", "\x7f")
        assert sorted(t.value for t in triples) == sorted(WORDS)


def prefix_range(prefix: str) -> tuple[str, str]:
    """The half-open range ``[prefix, successor)`` of every string that
    starts with a non-empty ``prefix``: bump its last character."""
    return prefix, prefix[:-1] + chr(ord(prefix[-1]) + 1)


class TestPrefix:
    """A prefix search is one string range: a subtree of the value keys."""

    @staticmethod
    def select_prefix(ctx, prefix):
        lo, hi = prefix_range(prefix)
        return select_string_range(ctx, TEXT_ATTR, lo, hi, hi_strict=True)

    def test_prefix_search(self, ctx):
        triples = self.select_prefix(ctx, "app")
        expected = sorted(w for w in WORDS if w.startswith("app"))
        assert [t.value for t in triples] == expected

    def test_prefix_no_matches(self, ctx):
        assert self.select_prefix(ctx, "zzz") == []

    def test_single_char_prefix(self, ctx):
        triples = self.select_prefix(ctx, "o")
        expected = sorted(w for w in WORDS if w.startswith("o"))
        assert [t.value for t in triples] == expected

    def test_whole_word_prefix(self, ctx):
        triples = self.select_prefix(ctx, "grape")
        assert sorted(t.value for t in triples) == ["grape", "grapes"]

    def test_prefix_query_in_vql(self, word_store):
        lo, hi = prefix_range("over")
        text = (
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            f"FILTER (?w >= '{lo}') FILTER (?w < '{hi}') }}"
        )
        assert "string_range" in word_store.explain(text)
        expected = sorted(w for w in WORDS if w.startswith("over"))
        assert sorted(word_store.query(text).column("w")) == expected


class TestVQLIntegration:
    def test_string_range_pushdown_planned(self, word_store):
        text = (
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (?w >= 'apple') FILTER (?w <= 'banana') }"
        )
        assert "string_range" in word_store.explain(text)

    def test_string_range_query_results(self, word_store):
        result = word_store.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (?w >= 'apple') FILTER (?w < 'banana') }"
        )
        expected = sorted(w for w in WORDS if "apple" <= w < "banana")
        assert sorted(result.column("w")) == expected

    def test_one_sided_string_range(self, word_store):
        result = word_store.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) FILTER (?w > 'pear') }}"
        )
        expected = sorted(w for w in WORDS if w > "pear")
        assert sorted(result.column("w")) == expected
