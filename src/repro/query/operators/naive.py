"""The naive string-similarity baseline (Section 4).

"A naive approach to process string similarity is to send a query to each
peer which is responsible for a part of the strings to be compared.  The
contacted peers then compare the queried string to the data available
locally and send matching results back to the peer having initiated the
query."

Instance level: the strings to be compared are the values of attribute
``a``, i.e. every peer whose partition intersects the ``key(a#·)`` region.
Schema level: attribute names live in *every* stored triple, so the whole
network has to be contacted.

The broadcast itself scales linearly with the number of peers (the region
is a constant fraction of a load-balanced network) — the behaviour
Figure 1 shows for the ``strings`` curves.  After local comparison, the
matching peers return ``(oid, value)`` pairs and the initiator batch-
fetches the complete objects, so the final result is identical in shape
to the q-gram strategies'.

A region comparison is one pass over a :class:`RegionColumn` — what
the region's peers hold for the attribute, scanned once and independent
of the query string — through the verifier's column path (a batch
bit-parallel scan across all of the region's distinct strings when the
column is retained and the kernel offers one).  The column is plain
compute-side state: it charges nothing and decides nothing about
messages.

:class:`NaiveWorkloadMemo` is a sweep-scale acceleration that is
cost-transparent by construction: whole-workload memoization.  A workload
  replays the same ``(s, a, d)`` query many times (repeated search
  strings, iterative-deepening top-N rounds, join probes over equal
  values); the *local comparison outcome* of such a query depends only on
  the stored data, which is identical across a partition's replicas and
  constant during a benchmark cell.  The memo caches that outcome per
  partition and replays it, while the broadcast itself — routed entry,
  shower forwards, per-peer query copies, result returns — is still
  executed and charged for real, so the measured message and byte series
  are bit-identical with the memo on or off (pinned by tests).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.core.errors import ExecutionError
from repro.overlay.messages import MessageType
from repro.query.operators.base import (
    QUERY_HEADER_BYTES,
    MatchedObject,
    OperatorContext,
)
from repro.query.operators.similar import SimilarResult
from repro.similarity.kernels import EncodedColumn
from repro.similarity.verify import BatchVerifier
from repro.storage.indexing import EntryKind


@dataclass(frozen=True)
class RegionComparison:
    """The data-dependent outcome of one naive region's local comparisons.

    Everything here is a function of ``(s, attribute)``, the band, and
    the stored data only — independent of the initiating peer, of which
    replica of a partition was contacted, and of every RNG draw — which
    is exactly what makes it safely memoizable across a workload.

    ``by_partition`` keeps every compared string whose edit distance to
    ``s`` is at most ``band``; the matches for any query distance
    ``d <= band`` are the entries with ``distance <= d``.  Banded DP
    distances are exact within the band, so the filtered view is
    bit-identical to a dedicated ``BatchVerifier(s, d)`` pass.
    """

    #: Largest distance the stored entries are complete and exact for.
    band: int
    #: partition index -> ((oid, value, distance <= band), ...) in store order.
    by_partition: dict[int, tuple[tuple[str, str, int], ...]]
    #: Total strings compared across the region (``candidates_verified``).
    local_comparisons: int
    #: Largest number of comparisons any single peer performed.
    max_peer_comparisons: int
    #: partition index -> store mutation counter of the scanned replica.
    #: Replayed only while the contacted replicas still report these
    #: versions; any mismatch invalidates the cache entry.
    store_versions: dict[int, int]

    def matched_at(self, partition_index: int, d: int) -> list[tuple[str, str, int]]:
        """One partition's matches for a query distance ``d <= band``."""
        entries = self.by_partition.get(partition_index)
        if not entries:
            return []
        if d >= self.band:
            return list(entries)
        return [entry for entry in entries if entry[2] <= d]


class RegionColumn:
    """What one naive region's peers compare, independent of the query.

    Per partition: the ``(oid, string)`` rows a peer of that partition
    compares, in store order — the attribute's values from its
    ``ATTR_VALUE`` entries (each value exactly once; non-string values
    are not comparable), or every entry's attribute *name* at schema
    level — with the mutation counter of the store they were read from.
    Across partitions: the distinct strings as one
    :class:`~repro.similarity.kernels.EncodedColumn`, rebuilt only when
    a slice was dropped or a re-scan changed some partition's rows.  A
    ``retained`` column (the memo's) encodes them for the batch scan; a
    column built for a single comparison does not — encoding a region
    costs more than one per-candidate pass over it.

    A slice is re-read whenever the contacted replica reports another
    store version than the one scanned, so a column never answers from
    rows older than the peer it is asked about.  Slices of partitions a
    query did not contact are simply not consulted.
    """

    __slots__ = (
        "region_prefix", "attribute", "schema_level", "retained", "_slices",
        "_encoded",
    )

    def __init__(
        self,
        region_prefix: str,
        attribute: str,
        schema_level: bool,
        retained: bool = True,
    ):
        self.region_prefix = region_prefix
        self.attribute = attribute
        self.schema_level = schema_level
        self.retained = retained
        #: partition index -> (scanned store version, rows).
        self._slices: dict[int, tuple[int, tuple[tuple[str, str], ...]]] = {}
        self._encoded: EncodedColumn | None = None

    def slice_of(self, peer, partition_index: int) -> tuple[int, tuple]:
        """``(store version, rows)`` of ``peer``'s partition, current as
        of the version ``peer`` reports."""
        store = peer.store
        held = self._slices.get(partition_index)
        if held is not None and held[0] == store.version:
            return held
        fresh = (store.version, self._scan(store))
        if held is None or held[1] != fresh[1]:
            self._encoded = None
        self._slices[partition_index] = fresh
        return fresh

    def _scan(self, store) -> tuple[tuple[str, str], ...]:
        if self.schema_level:
            return tuple(
                (entry.triple.oid, entry.triple.attribute)
                for entry in store.entries_of_kind(EntryKind.ATTR_VALUE)
            )
        attribute = self.attribute
        return tuple(
            (entry.triple.oid, entry.triple.value)
            for entry in store.entries_of_kind_prefix(
                EntryKind.ATTR_VALUE, self.region_prefix
            )
            if entry.triple.attribute == attribute
            and isinstance(entry.triple.value, str)
        )

    def encoded(self) -> EncodedColumn:
        """The distinct strings of every held slice."""
        if self._encoded is None:
            self._encoded = EncodedColumn(
                (
                    value
                    for __, rows in self._slices.values()
                    for __oid, value in rows
                ),
                matrix=self.retained,
            )
        return self._encoded

    def drop(self, partitions: Iterable[int]) -> None:
        """Forget the slices of ``partitions`` (they were written) and
        with them the strings only those partitions held."""
        for partition_index in partitions:
            if self._slices.pop(partition_index, None) is not None:
                self._encoded = None


class NaiveWorkloadMemo:
    """Whole-workload memo of naive-broadcast comparison outcomes.

    Keyed by ``(s, attribute)``: one region comparison at ``band =
    max(d, band)`` serves *every* distance up to the band, so a top-N
    query's iterative-deepening rounds (``d = 0, 1, 2, ...`` over the
    same search string) and a join's repeated probes all reuse a single
    region scan.  The default band matches the workload's maximum top-N
    radius.

    Valid only while the network's stores are unchanged — benchmark
    cells satisfy this (bulk load, then a read-only workload) — and the
    contract is *enforced*: every cached outcome records the scanned
    stores' mutation counters (:attr:`LocalDataStore.version
    <repro.storage.datastore.LocalDataStore>`), and a replay whose
    contacted replicas report any other version recomputes instead of
    answering stale.  Replicas of a partition hold identical data, so
    outcomes are cached per *partition*, making hits independent of
    which replica a broadcast happens to contact.

    The memo also retains one :class:`RegionColumn` per compared region,
    under the same rules: :meth:`clear` drops them, a write drops the
    written partitions' slices (only those are scanned again), and a
    slice whose replica reports another version is re-read.  The first
    comparison of any new search string therefore walks no store.
    """

    #: Default distance band (the workload's ``TOP_N_MAX_DISTANCE``).
    DEFAULT_BAND = 5

    def __init__(self, network, band: int = DEFAULT_BAND):
        self.network = network
        self.band = band
        self._cache: dict[tuple, RegionComparison] = {}
        self._columns: dict[tuple[str, str, bool], RegionColumn] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, key: tuple, d: int, contacted: list) -> RegionComparison | None:
        """A cached comparison valid for ``d`` and the contacted peers."""
        comparison = self._cache.get(key)
        if comparison is None or comparison.band < d:
            return None
        versions = comparison.store_versions
        for peer, partition_index in contacted:
            if versions.get(partition_index) != peer.store.version:
                del self._cache[key]
                self.invalidations += 1
                return None
        self.hits += 1
        return comparison

    def store(self, key: tuple, comparison: RegionComparison) -> None:
        self.misses += 1
        self._cache[key] = comparison

    def column(
        self, region_prefix: str, attribute: str, schema_level: bool
    ) -> RegionColumn:
        """The retained column of one region (created empty on first use)."""
        key = (region_prefix, attribute, schema_level)
        column = self._columns.get(key)
        if column is None:
            column = self._columns[key] = RegionColumn(*key)
        return column

    def clear(self) -> None:
        """Drop all cached outcomes (call after any data mutation)."""
        self._cache.clear()
        self._columns.clear()

    def note_write(self, writes: Mapping[int, object]) -> int:
        """Apply an engine-routed write, given per written partition:
        drop cached outcomes whose scanned region touches one.

        A region comparison records the store version of every partition
        it scanned, and its content is the whole region's — so the grain
        is the partition, whatever entries were written: exactly the
        comparisons that covered a written partition go, comparisons
        over other attributes' regions survive.  Returns the number of
        cached outcomes dropped.
        """
        partitions = writes.keys()
        stale = [
            key
            for key, comparison in self._cache.items()
            if not partitions.isdisjoint(comparison.store_versions)
        ]
        for key in stale:
            del self._cache[key]
        self.invalidations += len(stale)
        for column in self._columns.values():
            column.drop(partitions)
        return len(stale)

    def __len__(self) -> int:
        return len(self._cache)


def naive_similar(
    ctx: OperatorContext,
    s: str,
    attribute: str,
    d: int,
    initiator_id: int | None = None,
    verifier: BatchVerifier | None = None,
) -> SimilarResult:
    """Run the naive broadcast variant of ``Similar(s, a, d)``."""
    if d < 0:
        raise ExecutionError(f"similarity distance must be >= 0, got {d}")
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    schema_level = attribute == ""

    # The region holding the compared strings.
    if schema_level:
        region_prefix = ""  # attribute names occur everywhere
    else:
        region_prefix = ctx.codec.attr_prefix(attribute)

    # Under an active fault injector every query copy is delivered
    # individually with retry/failover.
    faulty = ctx.router.faults_active()

    # Broadcast the query into the region (routed entry + shower forwards).
    tracer = ctx.router.tracer
    peers = ctx.router.multicast_prefix(
        region_prefix, initiator_id, phase="broadcast"
    )
    # The query string travels with every broadcast message; charge its
    # size once per contacted peer on top of the multicast accounting.
    if faulty:
        reached = []
        for peer in peers:
            receiver = ctx.router.send_broadcast_failover(
                initiator_id, peer, QUERY_HEADER_BYTES + len(s),
                phase="broadcast",
            )
            if receiver is not None:
                reached.append(receiver)
        peers = reached
    elif tracer.record_log:
        if ctx.fanout is not None:
            ctx.router.send_broadcast_fanout(
                initiator_id,
                peers,
                lambda peer: QUERY_HEADER_BYTES + len(s),
                ctx.fanout,
                phase="broadcast",
            )
        else:
            for peer in peers:
                ctx.router.send_broadcast(
                    initiator_id, peer.peer_id, QUERY_HEADER_BYTES + len(s),
                    phase="broadcast",
                )
    else:
        tracer.send_bulk(
            MessageType.BROADCAST,
            len(peers),
            len(peers) * (QUERY_HEADER_BYTES + len(s)),
            phase="broadcast",
        )

    contacted = [(peer, peer.partition_index) for peer in peers]

    # Local comparison at every contacted peer — computed once per
    # (s, a) region when a workload memo is installed (at the memo's
    # band, so every later distance replays it), recomputed otherwise.
    # A partial (degraded) contact list must never seed the region-wide
    # memo, and replaying a healthy outcome would hide the darkness, so
    # the memo is bypassed entirely while faults are active.
    memo = None if faulty else ctx.naive_memo
    memo_key = (s, attribute)
    comparison = (
        memo.lookup(memo_key, d, contacted) if memo is not None else None
    )
    if comparison is None:
        band = max(d, memo.band) if memo is not None else d
        comparison = _compare_region(
            contacted,
            _region_column(memo, region_prefix, attribute, schema_level),
            band,
            _region_verifier(ctx, s, d, band, verifier),
        )
        if memo is not None:
            memo.store(memo_key, comparison)

    # Matching peers return their (oid, value) pairs to the initiator.
    hits: dict[str, tuple[int, str]] = {}
    for peer, partition_index in contacted:
        matched_here = comparison.matched_at(partition_index, d)
        if not matched_here:
            continue
        payload = sum(len(oid) + len(value) + 2 for oid, value, __ in matched_here)
        if not ctx.router.send_result(
            peer.peer_id, initiator_id, payload, phase="broadcast"
        ):
            # Result return lost beyond retries (degraded mode): this
            # peer's matches never reach the initiator.
            ctx.router.record_dropped_candidates(len(matched_here))
            continue
        for oid, value, distance in matched_here:
            previous = hits.get(oid)
            if previous is None or distance < previous[0]:
                hits[oid] = (distance, value)

    result = _assemble_result(ctx, hits, initiator_id, comparison)
    result.extras["region_peers"] = len(peers)
    return result


def _region_verifier(
    ctx: OperatorContext,
    s: str,
    d: int,
    band: int,
    verifier: BatchVerifier | None,
) -> BatchVerifier:
    """The verifier a region comparison should use.

    A caller-supplied verifier is only valid at its own distance; banded
    memo computes draw a ``(s, band)`` verifier from the context's shared
    pool when one is installed, and build a fresh one (on the context's
    kernel) otherwise.
    """
    if band == d and verifier is not None:
        return verifier
    return ctx.make_verifier(s, band)


def _region_column(
    memo: NaiveWorkloadMemo | None,
    region_prefix: str,
    attribute: str,
    schema_level: bool,
) -> RegionColumn:
    """The memo's retained column, or one built for this comparison only
    (no memo installed, or bypassed while faults are active) — same
    rows, same pass, but not worth encoding for a single use."""
    if memo is None:
        return RegionColumn(region_prefix, attribute, schema_level, retained=False)
    return memo.column(region_prefix, attribute, schema_level)


def _compare_region(
    contacted: list,
    column: RegionColumn,
    band: int,
    verifier: BatchVerifier,
) -> RegionComparison:
    """Compare the verifier's query against every contacted peer's rows.

    ``column`` supplies each contacted partition's rows (scanning only
    what it does not hold at the contacted replica's version) and the
    region's distinct strings; one pass through ``verifier`` — built for
    ``(s, band)`` — yields the strings within ``band``, and the outcome
    is their rows at the contacted partitions, in store order.  Pure
    compute: no tracer charge, no RNG draw.
    """
    scanned: list[tuple[int, tuple]] = []
    store_versions: dict[int, int] = {}
    local_comparisons = 0
    max_peer_comparisons = 0
    for peer, partition_index in contacted:
        store_version, rows = column.slice_of(peer, partition_index)
        store_versions[partition_index] = store_version
        local_comparisons += len(rows)
        max_peer_comparisons = max(max_peer_comparisons, len(rows))
        scanned.append((partition_index, rows))
    near = verifier.distances(column.encoded())
    by_partition: dict[int, tuple[tuple[str, str, int], ...]] = {}
    if near:
        for partition_index, rows in scanned:
            matched_here = [
                (oid, value, near[value]) for oid, value in rows if value in near
            ]
            if matched_here:
                by_partition[partition_index] = tuple(matched_here)
    return RegionComparison(
        band=band,
        by_partition=by_partition,
        local_comparisons=local_comparisons,
        max_peer_comparisons=max_peer_comparisons,
        store_versions=store_versions,
    )


def _assemble_result(
    ctx: OperatorContext,
    hits: dict[str, tuple[int, str]],
    initiator_id: int,
    comparison: RegionComparison,
) -> SimilarResult:
    """Batch-fetch complete objects and build the final result."""
    objects = ctx.fetch_objects(
        hits.keys(),
        delegating_peer_id=initiator_id,
        initiator_id=initiator_id,
        phase="oid_lookup",
    )
    matches = []
    for oid, (distance, value) in hits.items():
        triples = objects.get(oid)
        if triples is None:
            continue
        matches.append(
            MatchedObject(oid=oid, matched=value, distance=distance, triples=triples)
        )
    result = SimilarResult(matches=sorted(matches, key=lambda m: (m.distance, m.oid)))
    result.candidates_after_filters = len(hits)
    result.candidates_verified = comparison.local_comparisons
    result.extras["max_peer_comparisons"] = comparison.max_peer_comparisons
    return result

