"""Relation schemas and the horizontal → vertical decomposition.

Users *may* describe their data with a :class:`RelationSchema` — but never
have to: the storage is self-describing (Section 3), so any dict-shaped
record can be decomposed into triples directly with :func:`record_to_triples`.
Schemas exist for convenience (validation, consistent namespaces) and for
the examples, where the car/dealer relations of the paper's Section 3 are
declared explicitly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.errors import SchemaError
from repro.storage.triple import (
    NAMESPACE_SEPARATOR,
    Triple,
    ValueType,
    check_value,
    make_oid,
)


def qualify(namespace: str, attribute: str) -> str:
    """Qualify ``attribute`` with ``namespace`` unless already qualified."""
    if not attribute:
        raise SchemaError("attribute name must be non-empty")
    if NAMESPACE_SEPARATOR in attribute or not namespace:
        return attribute
    return f"{namespace}{NAMESPACE_SEPARATOR}{attribute}"


def record_to_triples(
    oid: str, record: Mapping[str, ValueType], namespace: str = ""
) -> list[Triple]:
    """Decompose one dict-shaped record into vertical triples.

    ``None`` values are skipped — null values are not represented (Section
    3).  Attribute names are namespace-qualified when a namespace is given.
    """
    triples: list[Triple] = []
    for attribute, value in record.items():
        if value is None:
            continue
        triples.append(Triple(oid, qualify(namespace, attribute), check_value(value)))
    return triples


@dataclass(frozen=True)
class RelationSchema:
    """A named relation with a declared attribute list.

    The schema is *advisory*: users can extend tuples with extra attributes
    (``strict=False``, the default) exactly as the paper's vertical scheme
    allows — "users can extend the schema to their needs by simply adding
    new triples".
    """

    name: str
    attributes: tuple[str, ...]
    strict: bool = False
    _attribute_set: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if not self.attributes:
            raise SchemaError(f"relation {self.name!r} declares no attributes")
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"relation {self.name!r} has duplicate attributes")
        object.__setattr__(self, "_attribute_set", frozenset(self.attributes))

    def tuple_to_triples(
        self, oid: str, values: Mapping[str, ValueType]
    ) -> list[Triple]:
        """Decompose one horizontal tuple into triples.

        In strict mode, attributes outside the declared list raise
        :class:`SchemaError`; otherwise they are stored as given (schema
        extension).
        """
        if self.strict:
            unknown = set(values) - self._attribute_set
            if unknown:
                raise SchemaError(
                    f"relation {self.name!r} does not declare: {sorted(unknown)}"
                )
        return record_to_triples(oid, values, namespace=self.name)

    def make_oid(self, serial: int) -> str:
        """Mint an oid in this relation's namespace."""
        return make_oid(self.name, serial)
