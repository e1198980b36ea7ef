"""Shared machinery for physical operators.

An :class:`OperatorContext` bundles everything an operator needs to run
against a network — router, codec, configuration, strategy and RNG — plus
the two helpers every similarity operator ends with:

* :meth:`OperatorContext.fetch_objects` — reconstruct complete objects
  from their oids (the "build complete object o from T'" step of
  Algorithm 2), charging delegation and result messages;
* :class:`MatchedObject` — one result row: the reconstructed object, the
  string/value that matched, and its distance to the query.

An :class:`OperationScope` opened on a context measures one operation's
:class:`~repro.overlay.messages.CostReport`.

The simulator enforces one discipline everywhere: a peer may only consult
*its own* store; any information that crosses peers is charged to the
tracer.  Gram entries deliberately do not expose the full source value to
the gram-owning peer (the paper stores ``(oid, A, q)``, not the value), so
final verification happens at the oid-owning peer, which legitimately
stores the object's complete triples.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.core.errors import ExecutionError
from repro.overlay.messages import CostReport, MessageType
from repro.overlay.network import PartitionWrite, PGridNetwork
from repro.overlay.routing import Router
from repro.similarity.filters import FilterConfig
from repro.similarity.verify import BatchVerifier, VerifierPool
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple, ValueType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.cost import StrategyCostModel, StrategyDecision
    from repro.query.operators.naive import NaiveWorkloadMemo
    from repro.query.operators.similar import GramScanMemo, SimilarResult
    from repro.query.statistics import StatisticsCatalog

#: Baseline size in bytes of a delegated query description (search string,
#: attribute, distance, query id).  Added to delegation payloads.
QUERY_HEADER_BYTES = 24


@dataclass(frozen=True)
class MatchedObject:
    """One similarity-query result.

    ``matched`` is the string (or attribute name, for schema-level queries)
    that satisfied the predicate; ``distance`` its distance to the query
    string; ``triples`` the complete reconstructed object.
    """

    oid: str
    matched: str
    distance: float
    triples: tuple[Triple, ...]

    def value_of(self, attribute: str) -> ValueType | None:
        """Value of ``attribute`` in this object, or None when absent."""
        for triple in self.triples:
            if triple.attribute == attribute:
                return triple.value
        return None

    def attributes(self) -> list[str]:
        """All attribute names of this object."""
        return sorted({t.attribute for t in self.triples})

    def payload_size(self) -> int:
        """Wire size of the complete object (result accounting)."""
        return sum(t.payload_size() for t in self.triples)


@dataclass
class OperatorContext:
    """Execution context shared by all physical operators."""

    network: PGridNetwork
    strategy: SimilarityStrategy | None = None
    filters: FilterConfig = field(default_factory=FilterConfig)
    rng: random.Random | None = None
    #: Whole-workload memo for the naive broadcast strategy (see
    #: :class:`repro.query.operators.naive.NaiveWorkloadMemo`).  ``None``
    #: disables memoization; message accounting is identical either way.
    naive_memo: "NaiveWorkloadMemo | None" = None
    #: Shared verifier pool: operators that build their own
    #: :class:`~repro.similarity.verify.BatchVerifier` draw it from here
    #: instead, so repeated ``(query, d)`` pairs across queries — and
    #: across a benchmark cell's strategy replays — share one DP memo.
    #: Verification is deterministic, so sharing never changes results.
    verifier_pool: VerifierPool | None = None
    #: Whole-workload memo for gram-peer candidate scans (see
    #: :class:`repro.query.operators.similar.GramScanMemo`).  ``None``
    #: disables it; kept true under writes by the owning engine.
    gram_scan_memo: "GramScanMemo | None" = None
    #: Whole-workload memo for per-oid object reconstruction (see
    #: :class:`FetchObjectsMemo`).  ``None`` disables it; same write
    #: maintenance and version enforcement as the gram-scan memo.
    fetch_memo: "FetchObjectsMemo | None" = None
    #: Statistics catalog consulted by the cost-based planner and the
    #: adaptive strategy resolution.  ``None`` keeps both structural.
    catalog: "StatisticsCatalog | None" = None
    #: Cost model resolving ``SimilarityStrategy.ADAPTIVE``; created
    #: lazily on first adaptive query when not injected.
    cost_model: "StrategyCostModel | None" = None
    #: The :class:`OperationScope` open on this context, if any.
    scope: "OperationScope | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.strategy is None:
            self.strategy = self.network.config.strategy
        if self.rng is None:
            self.rng = random.Random(self.network.config.seed + 2)
        if self.filters is None:  # pragma: no cover - defensive
            self.filters = FilterConfig()

    @property
    def config(self) -> StoreConfig:
        return self.network.config

    @property
    def router(self) -> Router:
        return self.network.router

    @property
    def codec(self):
        return self.network.codec

    def random_initiator(self) -> int:
        """Pick a random online peer to initiate a query."""
        return self.network.random_peer_id(self.rng)

    def make_verifier(self, query: str, d: int) -> BatchVerifier:
        """A verifier for ``(query, d)`` — pooled when a pool is installed.

        The single construction point operators should use: pooled
        verifiers share memos (and the pool's kernel) across queries,
        pool-less ones verify through the default kernel.
        """
        if self.verifier_pool is not None:
            return self.verifier_pool.get(query, d)
        return BatchVerifier(query, d)

    # -- adaptive strategy resolution ---------------------------------------------

    def decide_strategy(self, s: str, attribute: str, d: int) -> "StrategyDecision":
        """Resolve ``ADAPTIVE`` for one query and record the decision.

        Builds a structural :class:`~repro.query.cost.StrategyCostModel`
        on first use when none was injected (the no-statistics fallback:
        predictions degrade to region-vs-gram-fan-out comparisons), and
        appends the decision to the open :class:`OperationScope`, if any.
        """
        if self.cost_model is None:
            from repro.query.cost import StrategyCostModel

            self.cost_model = StrategyCostModel(self.network)
        decision = self.cost_model.choose(s, attribute, d, catalog=self.catalog)
        if self.scope is not None:
            self.scope.decisions.append(decision)
        return decision

    def run_adaptive(
        self, s: str, attribute: str, d: int, run: Callable[..., "SimilarResult"]
    ) -> "SimilarResult":
        """Resolve ``ADAPTIVE``, return ``run(chosen strategy)``, and record
        that run's measured messages and bytes on the decision."""
        decision = self.decide_strategy(s, attribute, d)
        tracer = self.network.tracer
        messages, payload_bytes = tracer.message_count, tracer.payload_bytes
        result = run(decision.chosen)
        decision.record_actual(
            tracer.message_count - messages, tracer.payload_bytes - payload_bytes
        )
        result.extras["adaptive"] = 1
        return result

    # -- object reconstruction ---------------------------------------------------

    def fetch_objects(
        self,
        oids: Iterable[str],
        delegating_peer_id: int,
        initiator_id: int,
        phase: str = "oid_lookup",
        query_bytes: int = QUERY_HEADER_BYTES,
        answered: set[str] | None = None,
    ) -> dict[str, tuple[Triple, ...]]:
        """Reconstruct complete objects for ``oids``.

        Models the paper's delegated flow: the delegating peer routes one
        batched request to each oid-owning partition (shower-batched), and
        each oid peer returns the requested objects to the *initiator* in
        one result message.

        ``answered`` (a per-query set of oids) suppresses duplicate
        answers when several gram peers delegate the same oid — an oid
        peer recognizes a query id it has already served and stays
        silent, so such an oid is left out of the returned map (nor is its
        record probed): the copy the initiator keeps is the one that was
        sent.  Delegation messages themselves are still charged (the
        duplicate request does travel).

        The oids are grouped by owning partition once and routed by
        partition index.  With a :class:`FetchObjectsMemo` installed, an
        oid fetched before takes its key and partition from the memo's
        address map and — while the contacted replica still reports the
        record's store version — its triples and payload size from the
        remembered :class:`ObjectRecord`: no hash, no bisect, no store
        lookup.  On a healthy transport without a verbose log the
        delegate and result fans are bulk-charged (identical counters);
        the per-message loop stays the reference path.
        """
        router = self.router
        memo = self.fetch_memo
        unique_oids = set(oids)
        if not unique_oids:
            return {}
        addresses = memo.addresses if memo is not None else {}
        records = memo.records if memo is not None else {}
        rebuild = memo.triples_for if memo is not None else _rebuild_object
        # ``partition index -> {key(oid): oid}`` of the request.
        groups: dict[int, dict[str, str]] = {}
        for oid in unique_oids:
            address = addresses.get(oid)
            if address is None:
                key = self.codec.oid_key(oid)
                address = (key, self.network.partition_for(key).index)
            key, index = address
            groups.setdefault(index, {})[key] = oid
        if sum(map(len, groups.values())) != len(unique_oids):
            raise ExecutionError("oid key collision — increase key_bits")
        objects: dict[str, tuple[Triple, ...]] = {}
        tracer = router.tracer
        bulk = not tracer.record_log and not router.faults_active()
        results = result_bytes = hits = 0
        reached = router.route_partitions(groups, delegating_peer_id, phase=phase)
        for index, peer in reached.items():
            group = groups[index]
            if not bulk and not router.send_delegate(
                delegating_peer_id,
                peer.peer_id,
                query_bytes + sum(map(len, group.values())),
                phase=phase,
            ):
                # Delegation lost beyond retries (degraded mode): the oid
                # peer never learns of the request, so its whole batch of
                # candidates silently drops out of the result.
                router.record_dropped_candidates(len(group))
                continue
            version = peer.store.version
            payload = 0
            fresh_oids: list[str] = []
            for key, oid in group.items():
                if answered is not None and oid in answered:
                    continue
                record = records.get(oid)
                if record is not None and record.stamp[0] == version:
                    hits += 1
                else:
                    record = rebuild(peer, key, oid)
                    if not record.triples:
                        continue
                objects[oid] = record.triples
                if answered is not None:
                    answered.add(oid)
                fresh_oids.append(oid)
                payload += record.payload_bytes
            if not fresh_oids:
                continue
            if bulk:
                results += 1
                result_bytes += payload
            elif not router.send_result(
                peer.peer_id, initiator_id, payload, phase=phase
            ):
                # Result message lost: the initiator never receives
                # this batch.  Un-record it (including the duplicate
                # suppression marks, so a later delegation of the
                # same oids can answer) and count the drop.
                for oid in fresh_oids:
                    objects.pop(oid, None)
                if answered is not None:
                    answered.difference_update(fresh_oids)
                router.record_dropped_candidates(len(fresh_oids))
        if memo is not None:
            memo.hits += hits
        if bulk:
            # Healthy transport: every group was reached and delegated to.
            tracer.send_bulk(
                MessageType.DELEGATE,
                len(reached),
                query_bytes * len(reached) + sum(map(len, unique_oids)),
                phase=phase,
            )
            if results:
                tracer.send_bulk(
                    MessageType.RESULT, results, result_bytes, phase=phase
                )
        return objects


class OperationScope:
    """The cost of one operation on a context, measured once.

    Entry snapshots the tracer and the verifier pool's counters and,
    under an active fault plan, begins a fault session; while open,
    :meth:`OperatorContext.decide_strategy` appends to :attr:`decisions`.
    Exit — on an exception too — builds :attr:`cost` from all four.
    Scopes do not nest: opening a second one on the same context raises
    :class:`RuntimeError`.
    """

    def __init__(self, ctx: OperatorContext):
        self.ctx = ctx
        self.decisions: list[StrategyDecision] = []
        self.cost: CostReport | None = None  # built on exit

    def __enter__(self) -> "OperationScope":
        ctx = self.ctx
        if ctx.scope is not None:
            raise RuntimeError("an operation scope is already open on this context")
        network = ctx.network
        injector = network.fault_injector
        active = injector is not None and injector.active
        self._session = injector.begin_session() if active else None
        pool = ctx.verifier_pool
        self._verifier_before = pool.counters.as_dict() if pool is not None else None
        self._before = network.tracer.snapshot()
        ctx.scope = self
        return self

    def __exit__(self, *exc_info) -> None:
        ctx = self.ctx
        ctx.scope = None
        cost = CostReport.from_delta(self._before, ctx.network.tracer.snapshot())
        cost.decisions = self.decisions
        if self._verifier_before is not None:
            pool = ctx.verifier_pool
            after = pool.counters.as_dict()
            cost.verifier = {
                key: after[key] - before for key, before in self._verifier_before.items()
            }
            cost.verifier["kernel"] = pool.kernel.name
        if self._session is not None:
            cost.completeness = self._session.completeness()
        self.cost = cost


#: What a stamp is set to once no replica can validate it any more
#: (store versions count up from zero).
DEAD_STAMP = -1


class VersionStamps:
    """The shared validity tokens of one memo's records.

    A record does not remember the store version it was built at; it
    holds the *stamp* — a one-element list — that every record of its
    partition built at that version shares.  The read path still makes
    one integer comparison, ``stamp[0] == store.version``; a write that
    names the few records it changed re-validates all the others of the
    partition by overwriting that one integer (:meth:`carry`), nothing
    per record.  At most one stamp is live per partition and distinct
    replica version.
    """

    def __init__(self) -> None:
        #: ``partition -> live stamps``, each at another version.
        self._held: dict[int, list[list[int]]] = {}

    def stamp(self, partition: int, version: int) -> list[int]:
        """The stamp records of ``partition`` built at ``version`` share."""
        stamps = self._held.get(partition)
        if stamps is None:
            stamps = self._held[partition] = []
        for stamp in stamps:
            if stamp[0] == version:
                return stamp
        stamps.append([version])
        return stamps[-1]

    def carry(self, partition: int, versions: Mapping[int, int]) -> None:
        """Follow the replicas of ``partition`` along ``versions`` — their
        store version ``before -> after``, as
        :class:`~repro.overlay.network.PartitionWrite` reports it; call
        once the records a write named are gone, so what a stamp still
        covers is unchanged on the replicas that took the write.

        A stamp shared by a replica that took the write and one that did
        not goes with the write (``versions`` maps their common version
        to the written one's), so the lagging replica mismatches and is
        re-read.  A stamp at a version no replica reported is
        unreachable (a repaired replica's, an earlier laggard's) and dies
        rather than wait for some counter to reach its number; so do two
        stamps arriving at one version — the comparison could no longer
        tell their replicas apart.
        """
        stamps = self._held.get(partition)
        if not stamps:
            return
        for stamp in stamps:
            stamp[0] = versions.get(stamp[0], DEAD_STAMP)
        if len(stamps) == 1 and stamps[0][0] != DEAD_STAMP:
            return  # the usual case: one lineage, carried
        arrived = [stamp[0] for stamp in stamps]
        for stamp in stamps:
            if arrived.count(stamp[0]) > 1:
                stamp[0] = DEAD_STAMP
        self._held[partition] = [
            stamp for stamp in stamps if stamp[0] != DEAD_STAMP
        ]

    def clear(self) -> None:
        self._held.clear()

    def __len__(self) -> int:
        return sum(map(len, self._held.values()))


class ObjectRecord(NamedTuple):
    """One oid peer's rebuild of a complete object, with what the fetch
    path would otherwise recompute per request."""

    #: Valid while ``stamp[0]`` is the contacted replica's store version
    #: (see :class:`VersionStamps`); ``None`` outside a memo.
    stamp: list[int] | None
    triples: tuple[Triple, ...]
    #: Wire size of ``triples`` (result-message accounting).
    payload_bytes: int


def _rebuild_object(
    peer, key: str, oid: str, stamp: list[int] | None = None
) -> ObjectRecord:
    """The complete-object rebuild an oid peer performs for one request."""
    triples = tuple(
        sorted(
            {
                e.triple
                for e in peer.store.lookup(key)
                if e.kind is EntryKind.OID and e.triple.oid == oid
            },
            key=lambda t: (t.attribute, str(t.value)),
        )
    )
    return ObjectRecord(stamp, triples, sum(t.payload_size() for t in triples))


class FetchObjectsMemo:
    """Whole-workload memo of per-oid object reconstruction.

    Every similarity strategy ends with the same step: oid peers rebuild
    complete objects from their ``key(oid)`` entries (Algorithm 2's
    "build complete object o from T'").  A benchmark workload requests
    the same oids over and over — top-N deepening rounds re-fetch every
    round's survivors, join probes re-fetch shared matches, and the
    q-gram strategies re-fetch per delegating gram peer — so the memo
    keeps two things per oid it has found:

    * :attr:`records` — one :class:`ObjectRecord`: a repeated fetch does
      no posting lookup and no payload re-sum.  ``fetch_objects``
      validates a record inline against the contacted replica's store
      version and enters :meth:`triples_for` only to rebuild;
    * :attr:`addresses` — ``oid -> (key(oid), partition index)``, what
      grouping and routing need: no key hash, no partition bisect.  An
      address is pure in the oid and the trie, so unlike a record it
      survives a write that names its oid (the miss after the write
      re-reads the store but re-derives nothing) and goes only with
      :meth:`clear`.

    Both are bounded by the objects found since the last :meth:`clear`
    (a rebuild that finds nothing is not remembered; the address of an
    object deleted since lingers until then — two pointers and a tuple).

    **What keeps a record true.**  A live record's stamp equals the
    version of a store whose ``OID`` entries for the record's oid are
    the ones it was built from:

    * it is built from the contacted replica and takes the stamp of that
      replica's partition and version (:class:`VersionStamps`);
    * a write routed through the owning :class:`~repro.engine.QueryEngine`
      reports the entries it applied (:meth:`note_write`): the record of
      every written ``OID`` entry's oid is dropped, and because nothing
      else under ``key(oid)`` changed on the replicas that took the
      write, every other record of the partition follows them to their
      new version through its stamp — O(written entries) + O(1) per
      partition;
    * a replica that missed the write (offline under ``respect_online``)
      keeps its old version, mismatches the moved stamp and is re-read:
      it serves its own stale object, exactly as a memo-free engine's
      would, and the rebuild is stamped for *its* version only;
    * anything that changes stores behind the engine's back advances the
      network-wide mutation token, on which the engine clears the memo
      outright — every membership change does, so a remembered partition
      index never outlives a renumbering;
    * it is *cost-transparent*: delegation and result messages are
      charged from the reconstructed triples, which are identical cached
      or not, so measured message/byte series do not change (pinned by
      tests).

    Replicas are told apart by their version counters alone: two replicas
    that diverged and then reached the same count are indistinguishable
    to the comparison (the equal-version boundary; the naive region
    column shares it, and
    ``tests/query/operators/test_naive_memo.py::TestDivergedReplicas``
    pins it there as an expected failure).
    """

    def __init__(self, network):
        self.network = network
        self.records: dict[str, ObjectRecord] = {}
        self.addresses: dict[str, tuple[str, int]] = {}
        self._stamps = VersionStamps()
        self.hits = 0
        self.misses = 0
        #: Records a write named and dropped, plus stamp mismatches met
        #: on the read path.
        self.invalidations = 0

    def triples_for(self, peer, key: str, oid: str) -> ObjectRecord:
        """The object stored under ``key`` at ``peer`` — its whole
        record, not only the triples — rebuilt at most once per store
        version.  ``fetch_objects`` enters only to rebuild.  (The name is
        a layer boundary of the repo benchmark.)"""
        version = peer.store.version
        known = self.records.get(oid)
        if known is not None:
            if known.stamp[0] == version:
                self.hits += 1
                return known
            self.invalidations += 1
        self.misses += 1
        record = _rebuild_object(
            peer, key, oid, self._stamps.stamp(peer.partition_index, version)
        )
        if record.triples:
            self.records[oid] = record
            if known is None:
                self.addresses[oid] = (key, peer.partition_index)
        elif known is not None:
            del self.records[oid]
        return record

    def note_write(self, writes: Mapping[int, PartitionWrite]) -> int:
        """Apply an engine-routed write: drop the records its ``OID``
        entries name, carry every other record of the written partitions
        to the written replicas' new versions.  Returns the number of
        records dropped."""
        records = self.records
        dropped = 0
        for partition, write in writes.items():
            for entry in write.entries:
                if (
                    entry.kind is EntryKind.OID
                    and records.pop(entry.triple.oid, None) is not None
                ):
                    dropped += 1
            self._stamps.carry(partition, write.versions)
        self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop all records, addresses and stamps (call after any data
        mutation the memo was not told about)."""
        self.records.clear()
        self.addresses.clear()
        self._stamps.clear()

    def __len__(self) -> int:
        return len(self.records)
