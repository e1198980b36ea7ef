"""``Similar(s, a, d, p)`` — Algorithm 2, the paper's core contribution.

Returns every object with an attribute-``a`` value (instance level) or an
attribute *name* (schema level, ``a = ""``) within edit distance ``d`` of
the search string ``s``.

Flow (with both optimizations the paper describes in Section 4):

1. the initiating peer decomposes ``s`` into q-grams — all overlapping
   grams (``QGRAM``) or a ``d+1`` non-overlapping q-sample (``QSAMPLE``);
2. the gram lookups are *batched*: every gram-owning partition is
   contacted once (shower-style ``route_many``), not once per gram;
3. each gram peer applies the position and length filters (line 8) to
   the postings of its gram keys — with a :class:`GramScanMemo`, as
   indexed probes into one positional table per gram key, scanned once
   whatever string asks and patched by the writes that touch it — and
   *delegates* the surviving candidate oids to the oid-owning peers;
4. each oid peer rebuilds the complete object from its ``key(oid)``
   entries, runs the final edit-distance verification (line 23 — possible
   remotely because the delegated query carries ``s`` and ``d``), and
   sends true matches straight back to the initiator.  Messages are
   charged per delivered object whether it matches or not, so the
   simulator verifies every delivered object in one batch at the end.

Completeness: a stored string within distance ``d`` always shares at least
one looked-up gram with compatible position/length (count bound for full
gram sets, the pigeonhole argument for q-samples), so no true match is
missed — property-tested against brute force in the test suite.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.config import SimilarityStrategy
from repro.core.errors import ExecutionError
from repro.overlay.network import PartitionWrite
from repro.query.operators.base import (
    QUERY_HEADER_BYTES,
    MatchedObject,
    OperatorContext,
    VersionStamps,
)
from repro.similarity.verify import BatchVerifier
from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.qgrams import (
    PositionalQGram,
    positional_qgrams,
    qgram_sample,
)


#: Most written rows a cached posting table may hold unapplied; one more
#: and the table is dropped (a table that is written but never asked for
#: must not grow).
PENDING_ROWS = 64


@dataclass
class SimilarResult:
    """Matches plus the operator's internal tallies (for diagnostics)."""

    matches: list[MatchedObject]
    grams_looked_up: int = 0
    candidates_after_filters: int = 0
    candidates_verified: int = 0
    gram_partitions_contacted: int = 0
    duplicate_delegations: int = 0
    extras: dict[str, int] = field(default_factory=dict)


class GramScanMemo:
    """Whole-workload memo of gram-peer posting tables.

    A gram peer's step-3 work — take the posting list of one gram key,
    keep entries whose gram text/attribute match, admit those passing
    the position/length filters — splits into a part that depends on the
    stored data only and a part that depends on the query.  The memo
    caches the first, per ``(partition, key, attribute, schema level,
    gram)``: the matching postings as one positional table, three
    aligned columns ``source_length, position, oid`` sorted as rows.  The filters are window tests on exactly those two coordinates,
    so any ``(occurrences, d, filters)`` replays as bisects: one pair to
    cut the length window, then one pair per stored length inside it for
    the position window (a filter that is off takes the whole column) —
    at most ``3(2d+1) + 2`` bisects per occurrence and never more than
    the table has lengths.  A gram is therefore scanned once, whatever
    search string, distance or filter subset asks.  The columns are flat
    lists of small integers and shared strings: a table adds no object
    per posting.

    The memo is keyed per partition (replicas at one version token store
    identical data) and is *cost-transparent*: delegation/result
    messages do not depend on how candidates were computed, so measured
    series are bit-identical with the memo on or off.

    **What keeps a table true.**  A live table's stamp equals the
    version of a store whose postings under the table's signature are
    the rows it holds (:class:`~repro.query.operators.base.VersionStamps`;
    the read path compares ``stamp[0]`` with the contacted replica's
    store version, one integer test, and rescans on a mismatch).  A
    write routed through the owning :class:`~repro.engine.QueryEngine`
    reports the entries it applied (:meth:`note_write`).  Each written
    gram entry names one signature; that table is *patched in place* —
    the entry's ``(length, position, oid)`` row bisected into or out of
    the sorted columns — when it provably describes the replicas that
    took the write: they all applied the same entries and the table's
    stamp is one of their versions from before it.  The write only
    queues the row on the table; the splices happen at the table's next
    probe, so a write costs the same whatever the table's size and a
    table nobody asks for again is never touched.  Otherwise (diverged
    replicas removed different subsets, a stamp from some other replica,
    more than :data:`PENDING_ROWS` rows queued, a row to delete that is
    not there) the table is dropped, which is always safe.  Every other
    table of a written partition follows the written replicas to their
    new version through its stamp; a replica that missed the write keeps
    its version, mismatches and is rescanned.  Stores changed behind the
    engine's back advance the network-wide mutation token and the engine
    clears the memo.
    """

    def __init__(self, network):
        self.network = network
        #: ``signature -> (stamp, lengths, positions, oids, pending)``: the
        #: three aligned columns, the stamp they are valid under, and the
        #: written ``(entry, removed)`` rows not yet spliced into them.  A
        #: plain tuple, unpacked where it is read: the probe is the hot
        #: path of every q-gram query.
        self._cache: dict[tuple, tuple[list[int], list, list, list, list]] = {}
        self._stamps = VersionStamps()
        self.hits = 0
        self.misses = 0
        #: Tables a write named and dropped, plus stamp mismatches met on
        #: the read path.
        self.invalidations = 0

    def candidate_oids(
        self,
        peer,
        partition_index: int,
        key: str,
        occurrences: list[PositionalQGram],
        attribute: str,
        schema_level: bool,
        d: int,
        filters,
    ) -> set[str]:
        """Oids this gram peer delegates for one looked-up key at ``d``."""
        gram = occurrences[0].gram
        signature = (partition_index, key, attribute, schema_level, gram)
        version = peer.store.version
        table = self._cache.get(signature)
        if table is not None:
            stamp, lengths, positions, oids, pending = table
            if stamp[0] != version or (pending and not _settle(table)):
                self.invalidations += 1
                table = None
            else:
                self.hits += 1
        if table is None:
            lengths, positions, oids = self._scan(
                peer.store, key, gram, attribute, schema_level
            )
            self.misses += 1
            self._cache[signature] = (
                self._stamps.stamp(partition_index, version),
                lengths, positions, oids, [],
            )
        return _admitted_oids(lengths, positions, oids, occurrences, d, filters)

    def _scan(self, store, key, gram, attribute, schema_level):
        """Postings of ``key`` as three aligned columns ``[lengths,
        positions, oids]``, sorted as rows."""
        postings = sorted(
            (entry.source_length, entry.position, entry.triple.oid)
            for entry in _matching_postings(store, key, gram, attribute, schema_level)
        )
        return [list(column) for column in zip(*postings)] or [[], [], []]

    def note_write(self, writes: Mapping[int, PartitionWrite]) -> int:
        """Apply an engine-routed write: queue its gram entries' rows on
        the tables they name (or, where a patch is not provably right,
        drop the table), carry every table of the written partitions to
        the written replicas' new versions.  Returns the number of tables
        dropped."""
        dropped = 0
        cache = self._cache
        for partition, (entries, removed, versions, uniform) in writes.items():
            for entry in entries:
                gram = entry.gram
                if gram is None:
                    continue
                schema_level = entry.kind is EntryKind.SCHEMA_GRAM
                signature = (
                    partition,
                    entry.key,
                    "" if schema_level else entry.triple.attribute,
                    schema_level,
                    gram,
                )
                table = cache.get(signature)
                if table is None:
                    continue
                built_at, pending = table[0][0], table[4]
                if (
                    uniform
                    # built from a replica this write moved
                    and versions.get(built_at, built_at) != built_at
                    and len(pending) < PENDING_ROWS
                ):
                    pending.append((entry, removed))
                else:
                    del cache[signature]
                    dropped += 1
            self._stamps.carry(partition, versions)
        self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop all cached tables and stamps (call after any data
        mutation the memo was not told about)."""
        self._cache.clear()
        self._stamps.clear()

    def __len__(self) -> int:
        return len(self._cache)


def _settle(table: tuple) -> bool:
    """Splice ``table``'s queued rows into its columns, in write order;
    false (the table is then unusable) when one could not be."""
    pending = table[4]
    settled = all(_patch(table, entry, removed) for entry, removed in pending)
    pending.clear()
    return settled


def _patch(table: tuple, entry: IndexEntry, removed: bool) -> bool:
    """Splice ``entry``'s row into ``table``'s columns — behind its
    equals, where a rescan would sort it — or, ``removed``, one copy of
    it out; false when the row to remove is not there."""
    __, lengths, positions, oids, __ = table
    length, position, oid = entry.source_length, entry.position, entry.triple.oid
    lo = bisect_left(lengths, length)
    hi = bisect_right(lengths, length, lo)
    lo = bisect_left(positions, position, lo, hi)
    hi = bisect_right(positions, position, lo, hi)
    if removed:
        at = bisect_left(oids, oid, lo, hi)
        if at == hi or oids[at] != oid:
            return False
        del lengths[at], positions[at], oids[at]
    else:
        at = bisect_right(oids, oid, lo, hi)
        lengths.insert(at, length)
        positions.insert(at, position)
        oids.insert(at, oid)
    return True


def _admitted_oids(
    lengths: list[int],
    positions: list[int],
    oids: list[str],
    occurrences: list[PositionalQGram],
    d: int,
    filters,
) -> set[str]:
    """Line 8 replayed on a posting table: the oids of every posting some
    occurrence admits at ``d`` under the active filters."""
    admitted: list[list[str]] = []
    for occurrence in occurrences:
        lo, hi = 0, len(lengths)
        if filters.use_length:
            lo = bisect_left(lengths, occurrence.source_length - d)
            hi = bisect_right(lengths, occurrence.source_length + d, lo)
        if not filters.use_position:
            admitted.append(oids[lo:hi])
            continue
        while lo < hi:  # one run of equal stored lengths at a time
            end = bisect_right(lengths, lengths[lo], lo, hi)
            start = bisect_left(positions, occurrence.position - d, lo, end)
            stop = bisect_right(positions, occurrence.position + d, start, end)
            admitted.append(oids[start:stop])
            lo = end
    return set().union(*admitted)


def _gram_candidates(
    ctx: OperatorContext,
    peer,
    keys: list[str],
    gram_keys: dict[str, list[PositionalQGram]],
    attribute: str,
    schema_level: bool,
    d: int,
    scan_memo: GramScanMemo | None,
) -> set[str]:
    """One gram peer's step-3 scan: the oids it would delegate at ``d``.

    Pure per-peer work: read-only store scans, no tracer charges, no RNG
    draws.
    """
    candidate_oids: set[str] = set()
    for key in keys:
        occurrences = gram_keys[key]
        if scan_memo is not None:
            candidate_oids.update(
                scan_memo.candidate_oids(
                    peer, peer.partition_index, key, occurrences,
                    attribute, schema_level, d, ctx.filters,
                )
            )
            continue
        for entry in _matching_postings(
            peer.store, key, occurrences[0].gram, attribute, schema_level
        ):
            stored = _entry_gram(entry)
            if not any(
                ctx.filters.admits(occurrence, stored, d)
                for occurrence in occurrences
            ):
                continue
            candidate_oids.add(entry.triple.oid)
    return candidate_oids


def similar(
    ctx: OperatorContext,
    s: str,
    attribute: str,
    d: int,
    initiator_id: int | None = None,
    strategy: SimilarityStrategy | None = None,
    verifier: BatchVerifier | None = None,
) -> SimilarResult:
    """Run ``Similar(s, a, d)`` from ``initiator_id``.

    ``attribute = ""`` switches to the schema level (the paper's
    ``a == ""`` branch, line 2): candidates are attribute names instead of
    values.  The strategy defaults to the context's configured one; the
    ``NAIVE`` baseline lives in :mod:`repro.query.operators.naive` and is
    dispatched transparently.  Callers running many probes for the same
    query (joins, iterative deepening) can pass a shared ``verifier`` so
    its memo survives across probes; it must be built for ``(s, d)``.
    """
    if d < 0:
        raise ExecutionError(f"similarity distance must be >= 0, got {d}")
    chosen = strategy if strategy is not None else ctx.strategy
    if chosen is SimilarityStrategy.ADAPTIVE:
        return ctx.run_adaptive(
            s, attribute, d,
            lambda physical: similar(
                ctx, s, attribute, d, initiator_id,
                strategy=physical, verifier=verifier,
            ),
        )
    if chosen is SimilarityStrategy.NAIVE:
        from repro.query.operators.naive import naive_similar

        return naive_similar(ctx, s, attribute, d, initiator_id, verifier=verifier)
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    if verifier is None:
        verifier = ctx.make_verifier(s, d)

    schema_level = attribute == ""
    query_grams = _decompose(s, ctx.config.q, d, chosen)
    gram_keys = _gram_keys(ctx, attribute, query_grams, schema_level)

    # Step 2: batched routing — each gram partition contacted once.
    answers = ctx.router.route_many(gram_keys.keys(), initiator_id, phase="gram_lookup")
    result = SimilarResult(matches=[])
    result.grams_looked_up = len(query_grams)
    contacted: dict[int, list[str]] = defaultdict(list)
    for key, peer in answers.items():
        contacted[peer.peer_id].append(key)
    result.gram_partitions_contacted = len(contacted)

    # Step 3: per gram peer — local filtering, then delegation.  With a
    # workload memo installed, each (partition, key) posting list is
    # scanned once and every query replays its filters as table probes.
    scan_memo = ctx.gram_scan_memo
    delivered: dict[str, tuple] = {}
    answered: set[str] = set()
    all_delegated: set[str] = set()
    delegated_total = 0
    for peer_id, keys in sorted(contacted.items()):
        peer = ctx.network.peer(peer_id)
        if not ctx.router.send_delegate(
            initiator_id,
            peer_id,
            QUERY_HEADER_BYTES
            + sum(len(g.gram) for k in keys for g in gram_keys[k]),
            phase="gram_lookup",
        ):
            # Delegation lost beyond retries (degraded mode): this gram
            # peer never scans, so its keys contribute no candidates.
            ctx.router.record_dropped_candidates(len(keys))
            continue
        candidate_oids = _gram_candidates(
            ctx, peer, keys, gram_keys, attribute, schema_level, d, scan_memo
        )
        if not candidate_oids:
            continue
        result.candidates_after_filters += len(candidate_oids)
        delegated_total += len(candidate_oids)
        all_delegated.update(candidate_oids)
        delivered.update(
            ctx.fetch_objects(
                candidate_oids,
                delegating_peer_id=peer_id,
                initiator_id=initiator_id,
                phase="oid_lookup",
                query_bytes=QUERY_HEADER_BYTES + len(s),
                answered=answered,
            )
        )
    result.duplicate_delegations = delegated_total - len(all_delegated)
    result.candidates_verified = len(delivered)
    result.matches = verified_matches(verifier, delivered, attribute, schema_level)
    return result


def _decompose(
    s: str, q: int, d: int, strategy: SimilarityStrategy
) -> list[PositionalQGram]:
    if strategy is SimilarityStrategy.QGRAM:
        return positional_qgrams(s, q)
    if strategy is SimilarityStrategy.QSAMPLE:
        return qgram_sample(s, q, d)
    raise ExecutionError(f"unsupported gram strategy: {strategy}")


def _gram_keys(
    ctx: OperatorContext,
    attribute: str,
    grams: list[PositionalQGram],
    schema_level: bool,
) -> dict[str, list[PositionalQGram]]:
    """Map DHT keys to the query gram occurrence(s) they look up.

    A gram text occurring at several positions of ``s`` maps to a single
    key but keeps every position: the position filter admits a candidate
    if *any* occurrence is compatible — collapsing to one position could
    wrongly reject a true match and break the no-false-negative guarantee.
    """
    keys: dict[str, list[PositionalQGram]] = defaultdict(list)
    for gram in grams:
        if schema_level:
            key = ctx.codec.schema_gram_key(gram.gram)
        else:
            key = ctx.codec.attr_value_key(attribute, gram.gram)
        keys[key].append(gram)
    return dict(keys)


def _matching_postings(
    store, key: str, gram: str, attribute: str, schema_level: bool
) -> list[IndexEntry]:
    """The entries under ``key`` that belong to a lookup of ``gram``.

    Composite keys can collide across attributes (the attribute prefix is
    truncated), so gram peers verify the entry's attribute and gram text —
    the paper's peers likewise "compare the queried string to the data
    available locally".
    """
    if schema_level:
        return [
            entry
            for entry in store.lookup(key)
            if entry.kind is EntryKind.SCHEMA_GRAM and entry.gram == gram
        ]
    return [
        entry
        for entry in store.lookup(key)
        if entry.kind is EntryKind.INSTANCE_GRAM
        and entry.gram == gram
        and entry.triple.attribute == attribute
    ]


def _entry_gram(entry: IndexEntry) -> PositionalQGram:
    """Positional gram view of a stored gram entry."""
    return PositionalQGram(entry.gram or "", entry.position, entry.source_length)


def verified_matches(
    verifier: BatchVerifier,
    delivered: dict[str, tuple],
    attribute: str,
    schema_level: bool,
) -> list[MatchedObject]:
    """Final edit-distance verification (line 23) of every delivered
    object in one batch: each object's closest string within ``d``.

    Verification decides no message — delegates and results are charged
    for every delivered object, match or not — so running it once per
    query, after the last delivery, is the oid peers' work in one pass.
    """
    if schema_level:
        pairs = [
            (oid, t.attribute) for oid, triples in delivered.items() for t in triples
        ]
    else:
        pairs = [
            (oid, t.value)
            for oid, triples in delivered.items()
            for t in triples
            if t.attribute == attribute and isinstance(t.value, str)
        ]
    distances = verifier.distances(string for __, string in pairs)
    d = verifier.d
    #: ``oid -> (distance, string)``; the first of equally close strings.
    best: dict[str, tuple[int, str]] = {}
    for oid, string in pairs:
        distance = distances[string]
        if distance <= d and (oid not in best or distance < best[oid][0]):
            best[oid] = (distance, string)
    return sorted(
        (
            MatchedObject(oid, string, distance, delivered[oid])
            for oid, (distance, string) in best.items()
        ),
        key=lambda m: (m.distance, m.oid),
    )
