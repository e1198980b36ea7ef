"""Reference: the key codec that remembers nothing.

Every method hashes its arguments from scratch on every call — the md5 of
the attribute name, the exact-integer Horner evaluation of the value — as
:class:`repro.overlay.hashing.CompositeKeyCodec` did before it kept its
per-attribute and per-gram memos.  The production codec must return the
same key whatever it was asked before.
"""

from __future__ import annotations

from repro.core.config import StoreConfig
from repro.overlay import keys as keyspace
from repro.overlay.hashing import (
    NumericKeyCodec,
    OrderPreservingStringHash,
    uniform_key,
)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ReferenceKeyCodec:
    """``CompositeKeyCodec``'s key layout, recomputed per call."""

    def __init__(self, config: StoreConfig):
        self.config = config

    def oid_key(self, oid: str) -> str:
        return uniform_key(oid, self.config.key_bits)

    def value_key(self, value: object) -> str:
        if _is_number(value):
            return NumericKeyCodec(self.config.key_bits).key(float(value))
        return OrderPreservingStringHash(self.config.key_bits).key(str(value))

    def schema_gram_key(self, gram: str) -> str:
        return OrderPreservingStringHash(self.config.key_bits).key(gram)

    def attr_prefix(self, attribute: str) -> str:
        return uniform_key(attribute, self.config.attr_bits)

    def attr_value_key(self, attribute: str, value: object) -> str:
        bits = self.config.value_bits
        if _is_number(value):
            suffix = NumericKeyCodec(bits).key(float(value))
        else:
            suffix = OrderPreservingStringHash(bits).key(str(value))
        return self.attr_prefix(attribute) + suffix

    def attr_value_range(
        self, attribute: str, lo: float, hi: float
    ) -> tuple[str, str]:
        bits = self.config.value_bits
        lo_val, hi_val = NumericKeyCodec(bits).range_keys(lo, hi)
        prefix = self.attr_prefix(attribute)
        return (
            prefix + keyspace.int_to_key(lo_val, bits),
            prefix + keyspace.int_to_key(hi_val, bits),
        )

    def attr_string_range(
        self, attribute: str, lo: str, hi: str
    ) -> tuple[str, str]:
        hasher = OrderPreservingStringHash(self.config.value_bits)
        prefix = self.attr_prefix(attribute)
        return prefix + hasher.key(lo), prefix + hasher.key(hi)
