"""Unit tests for relation schemas and decomposition."""

import pytest

from repro.core.errors import SchemaError
from repro.storage.schema import RelationSchema, qualify, record_to_triples


class TestQualify:
    def test_adds_namespace(self):
        assert qualify("car", "name") == "car:name"

    def test_keeps_qualified(self):
        assert qualify("car", "dealer:id") == "dealer:id"

    def test_empty_namespace(self):
        assert qualify("", "name") == "name"

    def test_rejects_empty_attribute(self):
        with pytest.raises(SchemaError):
            qualify("car", "")


class TestRecordToTriples:
    def test_basic_decomposition(self):
        triples = record_to_triples("car:1", {"name": "bmw", "hp": 300}, "car")
        assert {(t.attribute, t.value) for t in triples} == {
            ("car:name", "bmw"),
            ("car:hp", 300),
        }
        assert all(t.oid == "car:1" for t in triples)

    def test_none_values_skipped(self):
        triples = record_to_triples("x", {"a": 1, "b": None})
        assert [t.attribute for t in triples] == ["a"]

    def test_without_namespace(self):
        triples = record_to_triples("x", {"a": 1})
        assert triples[0].attribute == "a"


class TestRelationSchema:
    def test_tuple_to_triples(self):
        schema = RelationSchema("car", ("name", "hp"))
        triples = schema.tuple_to_triples("car:000001", {"name": "vw", "hp": 90})
        assert len(triples) == 2
        assert triples[0].attribute.startswith("car:")

    def test_schema_extension_allowed_by_default(self):
        schema = RelationSchema("car", ("name",))
        triples = schema.tuple_to_triples("car:1", {"name": "vw", "color": "red"})
        assert {t.attribute for t in triples} == {"car:name", "car:color"}

    def test_strict_mode_rejects_extension(self):
        schema = RelationSchema("car", ("name",), strict=True)
        with pytest.raises(SchemaError):
            schema.tuple_to_triples("car:1", {"name": "vw", "color": "red"})

    def test_make_oid(self):
        schema = RelationSchema("car", ("name",))
        assert schema.make_oid(7) == "car:000007"

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            RelationSchema("", ("a",))

    def test_rejects_no_attributes(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ())

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ("a", "a"))
