"""Binary key-space algebra for the P-Grid trie.

Keys are fixed-width binary strings represented as Python ``str`` of
``'0'``/``'1'`` characters.  Peer *paths* are variable-length prefixes of
the same space.  This module provides the prefix algebra used by routing
(Algorithm 1) — the complementary subtrie's prefix — and the conversion
between binary strings and integer intervals used by range queries.

The string representation was chosen over packed integers deliberately:
prefix relations — the heart of P-Grid routing — become plain
``str.startswith`` calls, which keeps every routing decision readable and
is plenty fast for simulation purposes.
"""

from __future__ import annotations

from repro.core.errors import KeyspaceError

_BINARY_CHARS = frozenset("01")


def validate_key(key: str) -> str:
    """Return ``key`` unchanged if it is a well-formed binary string.

    Raises :class:`KeyspaceError` for anything containing characters other
    than ``'0'`` and ``'1'``.  The empty string is a valid path (the trie
    root) but callers that require full-width keys should also check length.
    """
    if not _BINARY_CHARS.issuperset(key):
        raise KeyspaceError(f"not a binary key: {key!r}")
    return key


def sibling_prefix(path: str, level: int) -> str:
    """Prefix of the complementary subtrie at ``level``.

    For a peer with path ``pi``, the level-``level`` references point at
    peers whose path starts with ``pi[:level]`` followed by the inverse of
    ``pi[level]`` (Section 2 of the paper).
    """
    if not 0 <= level < len(path):
        raise KeyspaceError(f"level {level} out of range for path {path!r}")
    inverse = "1" if path[level] == "0" else "0"
    return path[:level] + inverse


def key_to_int(key: str) -> int:
    """Interpret a binary string as an unsigned integer (MSB first)."""
    validate_key(key)
    if not key:
        return 0
    return int(key, 2)


def int_to_key(value: int, bits: int) -> str:
    """Render an unsigned integer as a fixed-width binary string."""
    if value < 0:
        raise KeyspaceError(f"key value must be non-negative, got {value}")
    if value >= 1 << bits:
        raise KeyspaceError(f"value {value} does not fit in {bits} bits")
    return format(value, f"0{bits}b") if bits else ""


def prefix_interval(prefix: str, bits: int) -> tuple[int, int]:
    """Inclusive integer interval ``[lo, hi]`` covered by ``prefix``.

    A prefix of length ``l`` covers all ``bits``-wide keys that start with
    it: ``lo = prefix || 00..0`` and ``hi = prefix || 11..1``.
    """
    validate_key(prefix)
    if len(prefix) > bits:
        raise KeyspaceError(
            f"prefix {prefix!r} longer than key width {bits}"
        )
    pad = bits - len(prefix)
    lo = key_to_int(prefix) << pad
    hi = lo + (1 << pad) - 1
    return lo, hi
