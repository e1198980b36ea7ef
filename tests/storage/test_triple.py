"""Unit tests for triples and value validation."""

import pytest

from repro.core.errors import StorageError
from repro.storage.triple import Triple, check_value, is_numeric, make_oid


class TestTriple:
    def test_namespace_split(self):
        triple = Triple("x", "car:name", "bmw")
        assert triple.namespace == "car"

    def test_unqualified_attribute(self):
        triple = Triple("x", "name", "bmw")
        assert triple.namespace == ""

    def test_numeric_values_allowed(self):
        assert Triple("x", "a", 42).value == 42
        assert Triple("x", "a", 3.14).value == 3.14

    def test_hashable_and_equal(self):
        assert Triple("x", "a", 1) == Triple("x", "a", 1)
        assert len({Triple("x", "a", 1), Triple("x", "a", 1)}) == 1

    def test_rejects_empty_oid(self):
        with pytest.raises(StorageError):
            Triple("", "a", 1)

    def test_rejects_empty_attribute(self):
        with pytest.raises(StorageError):
            Triple("x", "", 1)

    def test_rejects_bool_value(self):
        with pytest.raises(StorageError):
            Triple("x", "a", True)

    def test_rejects_nan(self):
        with pytest.raises(StorageError):
            Triple("x", "a", float("nan"))

    def test_rejects_none(self):
        with pytest.raises(StorageError):
            Triple("x", "a", None)  # type: ignore[arg-type]

    def test_payload_size_scales_with_content(self):
        short = Triple("x", "a", "hi")
        long = Triple("x", "a", "hi" * 50)
        assert long.payload_size() > short.payload_size()

    def test_payload_size_numeric(self):
        assert Triple("x", "a", 12345678).payload_size() > 0

    def test_attribute_interned(self):
        a = Triple("x", "shared:attr", 1)
        b = Triple("y", "shared:attr", 2)
        assert a.attribute is b.attribute


class TestHelpers:
    def test_check_value_passthrough(self):
        assert check_value("s") == "s"
        assert check_value(1) == 1

    def test_is_numeric(self):
        assert is_numeric(1)
        assert is_numeric(1.5)
        assert not is_numeric("1")
        assert not is_numeric(True)

    def test_make_oid(self):
        assert make_oid("car", 42) == "car:000042"

    def test_make_oid_requires_namespace(self):
        with pytest.raises(StorageError):
            make_oid("", 1)
