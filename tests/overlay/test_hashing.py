"""Unit tests for the order-preserving and uniform hash functions."""

import pytest

from repro.core.config import StoreConfig
from repro.core.errors import HashingError
from repro.overlay.hashing import (
    CompositeKeyCodec,
    NumericKeyCodec,
    OrderPreservingStringHash,
    float_to_ordered_int,
    uniform_key,
)

from tests.reference.key_codec import ReferenceKeyCodec


class TestOrderPreservingStringHash:
    def setup_method(self):
        self.hash = OrderPreservingStringHash(32)

    def test_monotone_on_simple_words(self):
        words = sorted(["apple", "banana", "cherry", "date", "fig"])
        values = [self.hash.key_value(w) for w in words]
        assert values == sorted(values)

    def test_strictly_monotone_on_prefix_pairs(self):
        assert self.hash.key_value("a") < self.hash.key_value("ab")
        assert self.hash.key_value("ab") < self.hash.key_value("b")

    def test_case_folding(self):
        assert self.hash.key("Apple") == self.hash.key("apple")

    def test_key_width(self):
        assert len(self.hash.key("anything")) == 32

    def test_empty_string_is_minimum(self):
        assert self.hash.key_value("") == 0

    def test_unknown_characters_fold_to_neighbours(self):
        # '~' sorts above the alphabet; folding keeps the map total.
        assert self.hash.key_value("~") >= self.hash.key_value("z")

    def test_rejects_unsorted_alphabet(self):
        with pytest.raises(HashingError):
            OrderPreservingStringHash(16, alphabet="ba")

    def test_rejects_duplicate_alphabet(self):
        with pytest.raises(HashingError):
            OrderPreservingStringHash(16, alphabet="aab")

    def test_rejects_zero_bits(self):
        with pytest.raises(HashingError):
            OrderPreservingStringHash(0)

    def test_long_common_prefixes_order(self):
        a = "x" * 50 + "a"
        b = "x" * 50 + "b"
        # Beyond the bit budget the keys may collide, but never invert.
        assert self.hash.key_value(a) <= self.hash.key_value(b)


class TestNumericHashing:
    def test_float_ordering(self):
        values = [-1e9, -3.5, -1.0, 0.0, 0.5, 2.0, 1e9]
        mapped = [float_to_ordered_int(v) for v in values]
        assert mapped == sorted(mapped)

    def test_nan_rejected(self):
        with pytest.raises(HashingError):
            float_to_ordered_int(float("nan"))

    def test_codec_monotone(self):
        codec = NumericKeyCodec(20)
        keys = [codec.key(v) for v in (-10.0, -1.0, 0.0, 1.0, 10.0, 1e6)]
        assert keys == sorted(keys)

    def test_codec_key_width(self):
        assert len(NumericKeyCodec(20).key(3.14)) == 20

    def test_codec_range(self):
        codec = NumericKeyCodec(20)
        lo, hi = codec.range_keys(1.0, 2.0)
        assert lo <= hi

    def test_codec_empty_range_rejected(self):
        with pytest.raises(HashingError):
            NumericKeyCodec(20).range_keys(2.0, 1.0)

    def test_codec_bits_bounds(self):
        with pytest.raises(HashingError):
            NumericKeyCodec(0)
        with pytest.raises(HashingError):
            NumericKeyCodec(65)


class TestUniformKey:
    def test_deterministic(self):
        assert uniform_key("car:0001", 32) == uniform_key("car:0001", 32)

    def test_width(self):
        assert len(uniform_key("x", 24)) == 24

    def test_spread(self):
        # Sequential oids should not cluster: all four quadrant prefixes
        # appear among a hundred keys.
        prefixes = {uniform_key(f"car:{i:04d}", 32)[:2] for i in range(100)}
        assert prefixes == {"00", "01", "10", "11"}


class TestCompositeKeyCodec:
    def setup_method(self):
        self.codec = CompositeKeyCodec(StoreConfig(seed=1))

    def test_attr_value_key_width(self):
        key = self.codec.attr_value_key("car:price", 42)
        assert len(key) == StoreConfig().key_bits

    def test_attr_prefix_is_prefix_of_value_keys(self):
        prefix = self.codec.attr_prefix("car:price")
        key = self.codec.attr_value_key("car:price", 42)
        assert key.startswith(prefix)

    def test_numeric_order_within_attribute(self):
        keys = [self.codec.attr_value_key("a", v) for v in (1, 5, 100, 10_000)]
        assert keys == sorted(keys)

    def test_string_order_within_attribute(self):
        keys = [self.codec.attr_value_key("a", v) for v in ("ant", "bee", "cow")]
        assert keys == sorted(keys)

    def test_attr_value_range_covers_point(self):
        lo, hi = self.codec.attr_value_range("a", 10.0, 20.0)
        point = self.codec.attr_value_key("a", 15)
        assert lo <= point <= hi

    def test_attr_string_range_orders(self):
        lo, hi = self.codec.attr_string_range("a", "apple", "mango")
        assert lo <= hi

    def test_attr_string_range_empty_rejected(self):
        with pytest.raises(HashingError):
            self.codec.attr_string_range("a", "z", "a")

    def test_oid_key_width(self):
        assert len(self.codec.oid_key("car:0001")) == StoreConfig().key_bits

    def test_value_key_numeric_vs_string(self):
        assert self.codec.value_key(42) != self.codec.value_key("42")

    def test_schema_gram_key_deterministic(self):
        assert self.codec.schema_gram_key("abc") == self.codec.schema_gram_key("abc")


class TestCodecMemoIsBounded:
    """The codec remembers grams and attribute names, never the data."""

    @staticmethod
    def remembered(codec):
        return (
            len(codec._attr_prefixes),
            len(codec._gram_suffixes),
            len(codec._gram_keys),
            len(codec._attr_gram_keys),
        )

    def test_long_values_and_numbers_leave_no_trace(self):
        config = StoreConfig(seed=1)
        codec = CompositeKeyCodec(config)
        codec.attr_value_key("word:text", "the")
        codec.value_key("the")
        before = self.remembered(codec)
        assert before == (1, 1, 1, 1)
        for i in range(10_000):
            value = f"value-{i:05d}"
            assert len(value) > config.q
            codec.attr_value_key("word:text", value)
            codec.value_key(value)
            codec.attr_value_key("word:text", i)
            codec.value_key(i + 0.5)
            codec.oid_key(value)
        assert self.remembered(codec) == before

    def test_tables_stop_growing_at_the_cap(self, monkeypatch):
        from repro.overlay import hashing

        monkeypatch.setattr(hashing, "_MEMO_LIMIT", 4)
        codec = CompositeKeyCodec(StoreConfig(seed=1))
        reference = ReferenceKeyCodec(StoreConfig(seed=1))
        for gram in ("aa", "ab", "ac", "ad", "ae", "af", "aa", "af"):
            assert codec.attr_value_key(gram, gram) == reference.attr_value_key(
                gram, gram
            )
            assert codec.schema_gram_key(gram) == reference.schema_gram_key(gram)
        assert self.remembered(codec) == (4, 4, 4, 4)
