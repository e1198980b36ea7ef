"""Unit tests for the binary key algebra."""

import pytest

from repro.core.errors import KeyspaceError
from repro.overlay import keys

from tests.reference.routing import common_prefix_len
from tests.reference.routing_tables import interval_overlaps_prefix


class TestValidateKey:
    def test_accepts_binary_strings(self):
        assert keys.validate_key("0101") == "0101"

    def test_accepts_empty(self):
        assert keys.validate_key("") == ""

    def test_rejects_other_characters(self):
        with pytest.raises(KeyspaceError):
            keys.validate_key("01a1")


class TestPrefixAlgebra:
    def test_common_prefix_len(self):
        assert common_prefix_len("0110", "0101") == 2

    def test_common_prefix_len_identical(self):
        assert common_prefix_len("0110", "0110") == 4

    def test_common_prefix_len_disjoint(self):
        assert common_prefix_len("1", "0") == 0

    def test_common_prefix_len_different_widths(self):
        assert common_prefix_len("01", "0110") == 2


class TestSibling:
    def test_sibling_prefix(self):
        assert keys.sibling_prefix("0110", 2) == "010"

    def test_sibling_of_sibling_is_own_prefix(self):
        for level in range(4):
            sibling = keys.sibling_prefix("0110", level)
            assert keys.sibling_prefix(sibling, level) == "0110"[: level + 1]

    def test_sibling_prefix_level_zero(self):
        assert keys.sibling_prefix("0110", 0) == "1"

    def test_sibling_prefix_bad_level(self):
        with pytest.raises(KeyspaceError):
            keys.sibling_prefix("01", 5)


class TestIntConversion:
    def test_key_to_int(self):
        assert keys.key_to_int("0110") == 6

    def test_key_to_int_empty(self):
        assert keys.key_to_int("") == 0

    def test_int_to_key(self):
        assert keys.int_to_key(6, 4) == "0110"

    def test_int_to_key_zero_width(self):
        assert keys.int_to_key(0, 0) == ""

    def test_roundtrip(self):
        for value in (0, 1, 255, 1 << 20):
            assert keys.key_to_int(keys.int_to_key(value, 24)) == value

    def test_int_to_key_overflow(self):
        with pytest.raises(KeyspaceError):
            keys.int_to_key(16, 4)

    def test_int_to_key_negative(self):
        with pytest.raises(KeyspaceError):
            keys.int_to_key(-1, 4)


class TestIntervals:
    def test_prefix_interval(self):
        assert keys.prefix_interval("01", 4) == (4, 7)

    def test_prefix_interval_full_width(self):
        assert keys.prefix_interval("0110", 4) == (6, 6)

    def test_prefix_interval_root(self):
        assert keys.prefix_interval("", 4) == (0, 15)

    def test_prefix_too_long(self):
        with pytest.raises(KeyspaceError):
            keys.prefix_interval("01010", 4)

    # The range-lookup twin in ``tests/reference/routing_tables.py``
    # tests every partition with this overlap check.
    def test_overlap_inside(self):
        assert interval_overlaps_prefix(5, 6, "01", 4)

    def test_overlap_boundary(self):
        assert interval_overlaps_prefix(7, 12, "01", 4)

    def test_overlap_disjoint(self):
        assert not interval_overlaps_prefix(8, 12, "01", 4)
