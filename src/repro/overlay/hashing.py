"""Hash functions mapping application values into the binary key space.

P-Grid relies on an *order-preserving* hash so that lexicographically (or
numerically) adjacent values land on adjacent keys — this is what makes
range queries and q-gram prefix scans local operations (Sections 2 and 4 of
the paper).  This module provides:

* :class:`OrderPreservingStringHash` — strictly monotone string → key map;
* :func:`numeric_key_value` / :class:`NumericKeyCodec` — monotone float →
  key map based on the IEEE-754 order-preserving bit trick;
* :func:`uniform_key` — a uniform (md5-based) hash for ``oid`` lookups,
  where order is irrelevant and load balance is everything;
* :class:`CompositeKeyCodec` — ``attribute#value`` composite keys whose
  leading bits are the hashed attribute and trailing bits the hashed value,
  so prefix search on the attribute part yields schema-level scans and
  range search on the value part yields numeric similarity intervals.
"""

from __future__ import annotations

import hashlib
import math
import string as _string
import struct

from repro.core.config import StoreConfig
from repro.core.errors import HashingError
from repro.overlay import keys as keyspace

#: Characters the order-preserving string hash understands, in collation
#: order.  Covers the printable ASCII range used by the paper's datasets
#: (words, titles, attribute names) plus the q-gram extension markers
#: (\\x01, \\x02), which sort below every printable character.  Characters
#: outside the alphabet are folded onto their nearest neighbour to stay
#: total.
DEFAULT_ALPHABET = (
    "\x01\x02 !\"#$%&'()*+,-./0123456789:;<=>?@[]_`" + _string.ascii_lowercase
)


class OrderPreservingStringHash:
    """Strictly monotone map from strings to ``bits``-wide binary keys.

    The string is read as a fraction in base ``|alphabet| + 1`` with
    character ranks starting at 1 (rank 0 is reserved for "end of string"),
    and the key is the binary expansion of that fraction.  Reserving rank 0
    makes the map *strictly* monotone: ``"a" < "ab"`` implies
    ``key("a") < key("ab")`` because the implicit terminator ranks below
    every real character.

    Uppercase input is folded to lowercase before hashing — the paper's
    datasets are case-insensitive word collections.
    """

    def __init__(self, bits: int, alphabet: str = DEFAULT_ALPHABET):
        if bits < 1:
            raise HashingError(f"bits must be >= 1, got {bits}")
        if len(set(alphabet)) != len(alphabet):
            raise HashingError("alphabet contains duplicate characters")
        if sorted(alphabet) != list(alphabet):
            raise HashingError("alphabet must be sorted in collation order")
        self.bits = bits
        self.alphabet = alphabet
        self._rank = {ch: i + 1 for i, ch in enumerate(alphabet)}
        self._base = len(alphabet) + 1
        # Only the first ceil(bits / log2(base)) + 1 characters can influence
        # the key; hashing beyond that is wasted work.
        self._max_chars = int(bits / math.log2(self._base)) + 2

    def _rank_of(self, ch: str) -> int:
        """Rank of a character, folding unknown characters onto neighbours."""
        rank = self._rank.get(ch)
        if rank is not None:
            return rank
        folded = self._rank.get(ch.lower())
        if folded is not None:
            return folded
        # Clamp anything else to the nearest alphabet end so the map stays
        # total (monotonicity is only guaranteed within the alphabet).
        if ch < self.alphabet[0]:
            return 1
        return len(self.alphabet)

    def key_value(self, text: str) -> int:
        """Integer key value for ``text`` (the key is its binary rendering)."""
        text = text.lower()[: self._max_chars]
        # Horner evaluation of sum(rank_i / base^(i+1)) * 2^bits, done in
        # exact integer arithmetic to keep strict monotonicity at any width.
        numerator = 0
        denominator = 1
        for ch in text:
            numerator = numerator * self._base + self._rank_of(ch)
            denominator *= self._base
        value = (numerator << self.bits) // denominator
        # A fraction of exactly 1.0 cannot occur since rank <= base - 1,
        # but guard against the theoretical all-max-character edge.
        return min(value, (1 << self.bits) - 1)

    def key(self, text: str) -> str:
        """Binary key string for ``text``."""
        return keyspace.int_to_key(self.key_value(text), self.bits)


def float_to_ordered_int(value: float) -> int:
    """Map a float to an unsigned 64-bit int preserving numeric order.

    Classic IEEE-754 trick: reinterpret the float's bits; non-negative
    floats get the sign bit set, negative floats are bitwise inverted.
    The result is monotone over all finite floats (and symmetric around 0).
    """
    if math.isnan(value):
        raise HashingError("cannot hash NaN into the key space")
    if value == 0:
        value = 0.0  # collapse -0.0: equal floats must map equally
    bits = _float_bits(value)
    if bits & (1 << 63):  # negative
        return bits ^ 0xFFFFFFFFFFFFFFFF
    return bits | (1 << 63)


def _float_bits(value: float) -> int:
    """Raw IEEE-754 bit pattern of a float as an unsigned int."""
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


class NumericKeyCodec:
    """Monotone numeric → key map at a configurable width.

    Truncating the 64-bit ordered representation to ``bits`` keeps the map
    monotone (non-strictly: nearby floats may share a key, which only makes
    range queries slightly over-inclusive — peers verify values locally).
    """

    def __init__(self, bits: int):
        if not 1 <= bits <= 64:
            raise HashingError(f"numeric key bits must be in [1, 64], got {bits}")
        self.bits = bits

    def key_value(self, value: float) -> int:
        return float_to_ordered_int(value) >> (64 - self.bits)

    def key(self, value: float) -> str:
        return keyspace.int_to_key(self.key_value(value), self.bits)

    def range_keys(self, lo: float, hi: float) -> tuple[int, int]:
        """Inclusive integer key interval covering ``[lo, hi]``."""
        if lo > hi:
            raise HashingError(f"empty numeric range [{lo}, {hi}]")
        return self.key_value(lo), self.key_value(hi)


def uniform_key(text: str, bits: int) -> str:
    """Uniform, deterministic binary key for ``text`` (md5-based).

    Used for ``oid`` entries: object identifiers carry no meaningful order,
    so a uniform hash gives the best load balance.
    """
    digest = hashlib.md5(text.encode("utf-8")).digest()
    value = int.from_bytes(digest[:16], "big") >> (128 - bits)
    return keyspace.int_to_key(value, bits)


#: Most entries one memo table of a :class:`CompositeKeyCodec` holds.  A
#: corpus' grams and attribute names stay far below it; the cap is for a
#: service whose clients choose the search strings and attribute names.
_MEMO_LIMIT = 1 << 16


class CompositeKeyCodec:
    """Builds and dissects the key families of the storage scheme.

    One codec instance (derived from a :class:`StoreConfig`) produces every
    key kind the paper's Section 3/4 scheme needs:

    ========================  =============================================
    key kind                  layout
    ========================  =============================================
    ``oid_key(oid)``          uniform hash, full width
    ``value_key(v)``          order-preserving hash of the value, full width
    ``attr_value_key(A, v)``  ``oph(A)[:attr_bits] ++ hash(v)[:value_bits]``
    ``attr_prefix(A)``        just the attribute part (for attribute scans)
    ``schema_gram_key(g)``    order-preserving hash of the gram, full width
    ========================  =============================================

    String values use the order-preserving string hash; numeric values the
    monotone numeric codec — both confined to the value-bits suffix, so
    numeric range queries stay inside a single attribute's key region.

    The *attribute* part uses the uniform hash: attribute names only ever
    need identity (range/prefix semantics live in the value suffix), and
    an order-preserving attribute prefix would make every pair of
    namespaced attributes (``car:name`` vs ``car:price`` share 4+ chars ≈
    21 bits) collide into one region, merging their scan regions and
    wrecking load balance.

    The vertical layout hashes the same few things over and over — one
    attribute name per triple, one q-gram per gram entry (~10 per triple,
    a few thousand distinct per corpus) — so a codec remembers the prefix
    of every attribute name, the hash of every string of at most
    ``config.q`` characters and the composite key of every such string
    under an attribute it was asked for; the index entries of one gram
    then share one key string instead of holding an equal copy each.
    Longer strings and numbers are as many as the data and are hashed
    every time, which is what keeps the memo the size of the gram
    alphabet in use, not of the data.
    """

    def __init__(self, config: StoreConfig):
        self.config = config
        self._full_hash = OrderPreservingStringHash(config.key_bits)
        self._value_hash = OrderPreservingStringHash(config.value_bits)
        self._numeric = NumericKeyCodec(config.value_bits)
        self._full_numeric = NumericKeyCodec(config.key_bits)
        # attribute name -> prefix; string of <= q characters -> value
        # suffix, and -> full-width key; (attribute, such a string) ->
        # composite key, so the entries of one gram share one key string.
        self._attr_prefixes: dict[str, str] = {}
        self._gram_suffixes: dict[str, str] = {}
        self._gram_keys: dict[str, str] = {}
        self._attr_gram_keys: dict[tuple[str, str], str] = {}

    # -- full-width keys ---------------------------------------------------

    def oid_key(self, oid: str) -> str:
        """Key under which the complete object (all its triples) lives."""
        return uniform_key(oid, self.config.key_bits)

    def value_key(self, value: object) -> str:
        """Full-width key for keyword-style ``any attribute = v`` lookups."""
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return self._full_numeric.key(float(value))
        return self._string_key(self._gram_keys, self._full_hash, str(value))

    def schema_gram_key(self, gram: str) -> str:
        """Full-width key for a q-gram of an *attribute name*."""
        return self._string_key(self._gram_keys, self._full_hash, gram)

    # -- composite attribute#value keys -------------------------------------

    def attr_prefix(self, attribute: str) -> str:
        """The attribute part of composite keys — a scan prefix."""
        prefix = self._attr_prefixes.get(attribute)
        if prefix is None:
            prefix = uniform_key(attribute, self.config.attr_bits)
            if len(self._attr_prefixes) < _MEMO_LIMIT:
                self._attr_prefixes[attribute] = prefix
        return prefix

    def attr_value_key(self, attribute: str, value: object) -> str:
        """Composite key for an ``(attribute, value)`` pair.

        The ``(attribute, text)`` memo is probed first, before any type
        test: an index build asks for one key per q-gram, nearly all of
        them remembered.  Its keys are ``(str, str)`` pairs, so a numeric
        value can never hit one.
        """
        key = self._attr_gram_keys.get((attribute, value))
        if key is not None:
            return key
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return self.attr_prefix(attribute) + self._numeric.key(float(value))
        text = str(value)
        if len(text) > self.config.q:
            return self.attr_prefix(attribute) + self._value_hash.key(text)
        # The suffix memo keeps this at one hash per gram however many
        # attributes share it.
        key = self.attr_prefix(attribute) + self._string_key(
            self._gram_suffixes, self._value_hash, text
        )
        if len(self._attr_gram_keys) < _MEMO_LIMIT:
            self._attr_gram_keys[attribute, text] = key
        return key

    def attr_value_range(
        self, attribute: str, lo: float, hi: float
    ) -> tuple[str, str]:
        """Composite-key interval for ``attribute`` values in ``[lo, hi]``."""
        prefix = self.attr_prefix(attribute)
        lo_val, hi_val = self._numeric.range_keys(lo, hi)
        lo_key = prefix + keyspace.int_to_key(lo_val, self.config.value_bits)
        hi_key = prefix + keyspace.int_to_key(hi_val, self.config.value_bits)
        return lo_key, hi_key

    def attr_string_range(
        self, attribute: str, lo: str, hi: str
    ) -> tuple[str, str]:
        """Composite-key interval for string values in ``[lo, hi]``."""
        if lo > hi:
            raise HashingError(f"empty string range [{lo!r}, {hi!r}]")
        prefix = self.attr_prefix(attribute)
        lo_key = prefix + self._value_hash.key(lo)
        hi_key = prefix + self._value_hash.key(hi)
        return lo_key, hi_key

    def _string_key(
        self, memo: dict[str, str], hasher: OrderPreservingStringHash, text: str
    ) -> str:
        """``hasher.key(text)``, remembered in ``memo`` when ``text`` is short."""
        key = memo.get(text)
        if key is None:
            key = hasher.key(text)
            if len(text) <= self.config.q and len(memo) < _MEMO_LIMIT:
                memo[text] = key
        return key
