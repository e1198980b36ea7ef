"""Vertical triples — the unit of storage (Section 3 of the paper).

A horizontal tuple ``(oid, v1, ..., vn)`` of relation ``R(A1, ..., An)`` is
decomposed into ``n`` triples ``(oid, A1, v1) ... (oid, An, vn)``.  Attribute
names may carry a namespace prefix (``ns:attr``) to distinguish relations;
null values are simply not represented.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.core.errors import StorageError

#: Separator between a namespace and a local attribute name.
NAMESPACE_SEPARATOR = ":"

#: Python types accepted as triple values.
ValueType = str | int | float


def check_value(value: object) -> ValueType:
    """Validate a triple value; returns it unchanged.

    Booleans are rejected (they would silently coerce to 0/1 and break
    range semantics); everything else must be a string or a real number.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise StorageError(f"unsupported triple value: {value!r}")
    if isinstance(value, float) and value != value:  # NaN
        raise StorageError("NaN is not a valid triple value")
    return value


def is_numeric(value: object) -> bool:
    """True for int/float triple values (bool excluded)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Triple:
    """One ``(oid, attribute, value)`` fact.

    Instances are immutable and hashable, so result sets can be deduplicated
    with plain ``set`` operations.  Attribute names are interned — a dataset
    has few distinct attributes but millions of triples.
    """

    oid: str
    attribute: str
    value: ValueType

    def __post_init__(self) -> None:
        if not self.oid:
            raise StorageError("triple oid must be non-empty")
        if not self.attribute:
            raise StorageError("triple attribute must be non-empty")
        check_value(self.value)
        object.__setattr__(self, "attribute", sys.intern(self.attribute))

    @property
    def namespace(self) -> str:
        """Namespace prefix of the attribute, or '' if unqualified."""
        head, sep, __ = self.attribute.partition(NAMESPACE_SEPARATOR)
        return head if sep else ""

    def payload_size(self) -> int:
        """Approximate wire size in bytes (for data-volume accounting)."""
        value = self.value
        value_size = len(value) if isinstance(value, str) else 8
        return len(self.oid) + len(self.attribute) + value_size + 3

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"({self.oid}, {self.attribute}, {self.value!r})"


def make_oid(namespace: str, serial: int) -> str:
    """Build a URI-style object identifier, e.g. ``car:000042``."""
    if not namespace:
        raise StorageError("oid namespace must be non-empty")
    return f"{namespace}{NAMESPACE_SEPARATOR}{serial:06d}"
