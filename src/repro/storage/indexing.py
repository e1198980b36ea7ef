"""Index-entry generation — the paper's multi-key insertion scheme.

Each triple ``(oid, A, v)`` is inserted into the DHT several times
(Sections 3 and 4):

=================  =====================  ==================================
entry kind         DHT key                supports
=================  =====================  ==================================
``OID``            ``key(oid)``           object lookups / row reconstruction
``ATTR_VALUE``     ``key(A#v)``           selections ``A op v``, range scans
``VALUE``          ``key(v)``             keyword queries "any attribute = v"
``INSTANCE_GRAM``  ``key(A#g)`` per gram  instance-level string similarity
                   ``g`` of ``v``
``SCHEMA_GRAM``    ``key(g)`` per gram    schema-level similarity on
                   ``g`` of ``A``         attribute names
=================  =====================  ==================================

Gram entries carry the gram's position and source-string length so the
executor can apply Algorithm 2's position/length filters *at the remote
peer*, before any candidate travels over the network.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import StoreConfig
from repro.storage.qgrams import qgram_tuples
from repro.storage.triple import Triple, is_numeric

if TYPE_CHECKING:  # pragma: no cover - layering: storage must not import overlay
    from repro.overlay.hashing import CompositeKeyCodec


class EntryKind(enum.Enum):
    """Which index family an entry belongs to."""

    OID = "oid"
    ATTR_VALUE = "attr_value"
    VALUE = "value"
    INSTANCE_GRAM = "instance_gram"
    SCHEMA_GRAM = "schema_gram"


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """One stored ``key -> payload`` fact.

    ``gram``/``position``/``source_length`` are only populated for the two
    gram kinds; for the others they are ``None``/0 and ignored.
    """

    key: str
    kind: EntryKind
    triple: Triple
    gram: str | None = None
    position: int = 0
    source_length: int = 0

    def payload_size(self) -> int:
        """Approximate wire size in bytes (data-volume accounting)."""
        size = self.triple.payload_size() + 1
        if self.gram is not None:
            size += len(self.gram) + 2
        return size


#: The slot descriptors :func:`_new_entry` fills, bound once.
_new = object.__new__
_set_key = IndexEntry.key.__set__
_set_kind = IndexEntry.kind.__set__
_set_triple = IndexEntry.triple.__set__
_set_gram = IndexEntry.gram.__set__
_set_position = IndexEntry.position.__set__
_set_source_length = IndexEntry.source_length.__set__


def _new_entry(
    key: str,
    kind: EntryKind,
    triple: Triple,
    gram: str | None,
    position: int,
    source_length: int,
) -> IndexEntry:
    """``IndexEntry(key, kind, triple, gram, position, source_length)``.

    Fills the six slots through the class's slot descriptors, at well
    under half the cost of the generated keyword ``__init__``.  A
    descriptor write bypasses the frozen ``__setattr__`` only here: the
    result is the same frozen entry, equal, hashing and printing alike,
    and it refuses assignment afterwards.
    """
    entry = _new(IndexEntry)
    _set_key(entry, key)
    _set_kind(entry, kind)
    _set_triple(entry, triple)
    _set_gram(entry, gram)
    _set_position(entry, position)
    _set_source_length(entry, source_length)
    return entry


class EntryFactory:
    """Generates every index entry a triple induces under a configuration.

    The factory is where the storage scheme's knobs live: value/gram
    families can be disabled (``StoreConfig.index_*``) for the storage
    ablations, and the q-gram length follows ``config.q``.  Entries are
    built by :func:`_new_entry`, one list per triple; an instance gram's
    key comes from the codec's ``(attribute, gram)`` memo, so the entries
    of one gram share one key string.
    """

    def __init__(self, config: StoreConfig, codec: "CompositeKeyCodec"):
        self.config = config
        self.codec = codec

    def entries_for(self, triple: Triple) -> Iterator[IndexEntry]:
        """All index entries for one triple, in family order."""
        codec = self.codec
        config = self.config
        attribute = triple.attribute
        value = triple.value
        entries = [
            _new_entry(codec.oid_key(triple.oid), EntryKind.OID, triple, None, 0, 0),
            _new_entry(
                codec.attr_value_key(attribute, value),
                EntryKind.ATTR_VALUE,
                triple,
                None,
                0,
                0,
            ),
        ]
        if config.index_values:
            entries.append(
                _new_entry(codec.value_key(value), EntryKind.VALUE, triple, None, 0, 0)
            )
        if config.index_instance_grams and not is_numeric(value):
            text = str(value)
            length = len(text)
            key_of = codec.attr_value_key
            kind = EntryKind.INSTANCE_GRAM
            entries += [
                _new_entry(key_of(attribute, gram), kind, triple, gram, position, length)
                for gram, position in qgram_tuples(text, config.q)
            ]
        if config.index_schema_grams:
            length = len(attribute)
            key_of = codec.schema_gram_key
            kind = EntryKind.SCHEMA_GRAM
            entries += [
                _new_entry(key_of(gram), kind, triple, gram, position, length)
                for gram, position in qgram_tuples(attribute, config.q)
            ]
        return iter(entries)

    def entries_for_all(self, triples: Iterable[Triple]) -> Iterator[IndexEntry]:
        """Yield all index entries for a collection of triples."""
        for triple in triples:
            yield from self.entries_for(triple)

    def storage_amplification(self, triples: Iterable[Triple]) -> float:
        """Entries stored per input triple — the scheme's storage overhead.

        The paper accepts this overhead as "negligible on modern computers";
        the number quantifies it for a given dataset.
        """
        triple_count = 0
        entry_count = 0
        for triple in triples:
            triple_count += 1
            entry_count += sum(1 for __ in self.entries_for(triple))
        if triple_count == 0:
            return 0.0
        return entry_count / triple_count
