"""The unified query facade: :class:`QueryEngine`.

One object owns everything a query needs — the network, the statistics
catalog, the planner/executor pair, the whole-workload memos
(:class:`~repro.query.operators.naive.NaiveWorkloadMemo`,
:class:`~repro.query.operators.similar.GramScanMemo`,
:class:`~repro.query.operators.base.FetchObjectsMemo`), the shared
:class:`~repro.similarity.verify.VerifierPool`, and the cost model that
resolves ``SimilarityStrategy.ADAPTIVE`` — so every entry point (the
shell, the examples, the benchmark harness, library users) gets the same
wiring instead of hand-assembling an
:class:`~repro.query.operators.base.OperatorContext`.

Typical use::

    from repro import QueryEngine, StoreConfig, Triple

    engine = QueryEngine.build(
        n_peers=256,
        triples=my_triples,
        config=StoreConfig(seed=7),
        strategy="adaptive",
    )
    engine.analyze(["car:name"])             # feed the cost model
    result = engine.query(
        "SELECT ?n WHERE { (?o,car:name,?n) FILTER (dist(?n,'BMW') < 2) }"
    )
    for decision in result.cost.decisions:   # what adaptive mode picked
        print(decision.summary())

Memo validity is *maintained* here.  A write through :meth:`QueryEngine.insert`
or :meth:`QueryEngine.delete` comes back from the network as, per
touched partition, the entries applied and where every replica's store
version went (:class:`~repro.overlay.network.PartitionWrite`); the
fetch and gram-scan memos drop (or patch) exactly the records those
entries name, and every other record of the partition follows the
written replicas to their new version through one shared stamp.  Every
record is still checked on every probe — one integer comparison against
the contacted replica's store version — so a replica that missed the
write is re-read, never answered for.  Anything that changes a store
*behind* the engine's back moves the network-wide mutation token (the
network ledger's tick, advanced by every
:class:`~repro.storage.datastore.LocalDataStore` write, store
replacement and membership change — an O(1) read), which every recorded
operation re-checks; any unexplained change drops all memos at once.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from contextlib import contextmanager

from dataclasses import dataclass, field

from repro.core.config import RankFunction, SimilarityStrategy, StoreConfig
from repro.core.stats import QueryStats
from repro.overlay.churn import ChurnController, ChurnReport
from repro.overlay.fanout import FanOutExecutor
from repro.overlay.faults import FaultInjector, FaultMode, FaultPlan, RetryPolicy
from repro.overlay.incremental import PreparedDataset
from repro.overlay.messages import CostReport
from repro.overlay.network import PartitionWrite, PGridNetwork
from repro.query.cost import StrategyCostModel, StrategyDecision
from repro.query.executor import Executor, QueryResult
from repro.query.operators.base import (
    FetchObjectsMemo,
    MatchedObject,
    OperatorContext,
)
from repro.query.operators.exact import (
    keyword_lookup,
    lookup_object,
    select_equals,
)
from repro.query.operators.naive import NaiveWorkloadMemo
from repro.query.operators.range_scan import numeric_similar
from repro.query.operators.similar import GramScanMemo, SimilarResult, similar
from repro.query.operators.simjoin import SimJoinResult, anchored_sim_join, sim_join
from repro.query.operators.topn import TopNResult, top_n_numeric, top_n_string_nn
from repro.query.statistics import StatisticsCatalog, collect_statistics
from repro.similarity.filters import FilterConfig
from repro.similarity.kernels import EditKernel, resolve_kernel
from repro.similarity.verify import DEFAULT_POOL_LIMIT, VerifierPool
from repro.storage.triple import Triple, ValueType


@dataclass(frozen=True)
class WriteReport:
    """What the engine's latest :meth:`QueryEngine.insert` or
    :meth:`QueryEngine.delete` did."""

    #: Index entries stored (removed), replicas counted once.
    applied: int = 0
    #: Partitions holding at least one of them.
    affected_partitions: int = 0
    #: Per installed memo, the cached records the write dropped.
    invalidated: dict[str, int] = field(default_factory=dict)


@dataclass
class RecoveryReport:
    """What one :meth:`QueryEngine.recover` call did.

    ``divergent_partitions`` lists the partitions anti-entropy repair had
    to touch (replicas that missed writes while offline); only these
    partitions' memo entries can be invalidated — and of those only what
    a repaired replica answered — so zero divergence means zero
    invalidation.
    """

    recovered_peers: int = 0
    divergent_partitions: list[int] = field(default_factory=list)
    entries_copied: int = 0

    @property
    def data_changed(self) -> bool:
        return bool(self.divergent_partitions)


class QueryEngine:
    """Query processing over one populated network, fully wired.

    Parameters
    ----------
    network:
        The overlay to query.
    strategy:
        Default similarity strategy (enum, name string, or ``None`` for
        the network config's; ``"adaptive"`` turns on cost-based
        selection).
    memoize:
        Install the three whole-workload memos (``False`` gives the
        memo-free reference engine; measured series are identical).
    edit_kernel:
        Edit-distance kernel for the final verification step — an
        :class:`~repro.similarity.kernels.EditKernel` instance, or
        ``None`` for the shipped default (Myers bit-parallel, with the
        numpy prefilter when importable).  Tests pin the banded-DP
        kernel of ``tests/reference/kernel.py`` through it; anything
        else raises :class:`TypeError`.  Kernels change wall-clock only;
        every match set and measured message/byte series is
        kernel-independent.
    verifier_pool_limit:
        Bound on live verifiers in the shared
        :class:`~repro.similarity.verify.VerifierPool` (LRU eviction
        beyond it); ``None`` keeps the pool default.  Distance memos are
        store-independent, so eviction is always safe.
    parallel_fanout:
        Thread count (>= 2) for the intra-query fan-out: per-peer
        delegate work (gram-peer candidate scans, broadcast query
        copies) runs on a
        :class:`~repro.overlay.fanout.FanOutExecutor` owned by this
        engine, with charges merged deterministically so every measured
        series stays bit-identical to the serial reference path.
        ``None``/``0``/``1`` (the default) keeps everything serial.
        Engines with a fan-out installed should be :meth:`close`\\ d (or
        used as context managers) to release the pool's threads.

    A write routed through the engine (:meth:`insert`, :meth:`delete`,
    :meth:`recover`) invalidates only the memo records the written index
    entries name (the naive memo: the written partitions' slices) and
    patches the statistics catalog in place.  Out-of-band store changes
    (anything mutating a peer's store without going through the engine)
    trip :meth:`check_mutations` and drop everything.
    """

    def __init__(
        self,
        network: PGridNetwork,
        strategy: SimilarityStrategy | str | None = None,
        memoize: bool = True,
        parallel_fanout: int | None = None,
        edit_kernel: EditKernel | None = None,
        verifier_pool_limit: int | None = None,
    ):
        self.network = network
        self.config = network.config
        self._churn: ChurnController | None = None
        if isinstance(strategy, str):
            strategy = SimilarityStrategy.from_name(strategy)
        self.naive_memo = NaiveWorkloadMemo(network) if memoize else None
        self.gram_scan_memo = GramScanMemo(network) if memoize else None
        self.fetch_memo = FetchObjectsMemo(network) if memoize else None
        self.edit_kernel = resolve_kernel(edit_kernel)
        self.verifier_pool = VerifierPool(
            kernel=self.edit_kernel,
            max_verifiers=(
                verifier_pool_limit
                if verifier_pool_limit is not None
                else DEFAULT_POOL_LIMIT
            ),
        )
        self.fanout = (
            FanOutExecutor(parallel_fanout)
            if parallel_fanout is not None and parallel_fanout > 1
            else None
        )
        self.cost_model = StrategyCostModel(network)
        self._filters = FilterConfig(
            use_position=self.config.enable_position_filter,
            use_length=self.config.enable_length_filter,
        )
        self._mutation_token = network.store_version_token()
        self.ctx = self.context(
            strategy=strategy if strategy is not None else self.config.strategy,
            rng=random.Random(self.config.seed + 3),
        )
        self.executor = Executor(self.ctx)
        self.stats = QueryStats()

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(
        cls,
        n_peers: int,
        triples: Sequence[Triple] = (),
        config: StoreConfig | None = None,
        strategy: SimilarityStrategy | str | None = None,
        **engine_options,
    ) -> "QueryEngine":
        """Build a network sized for ``triples``, bulk-load, and wrap it.

        The index entries are derived once; the trie is balanced against
        their keys (P-Grid's load balancing) and they are placed on it.
        Use :meth:`insert` afterwards for incremental additions.
        """
        config = config if config is not None else StoreConfig()
        network = PreparedDataset.prepare(triples, config).build_network(n_peers)
        return cls(network, strategy=strategy, **engine_options)

    # -- context wiring ------------------------------------------------------------

    def context(
        self,
        strategy: SimilarityStrategy | str | None = None,
        rng: random.Random | None = None,
    ) -> OperatorContext:
        """A fresh :class:`OperatorContext` sharing this engine's wiring.

        Benchmark replays build one context per strategy; each shares the
        engine's memos, verifier pool, cost model and catalog, while the
        RNG defaults to the same fresh seed an unwired context would use
        (bit-identical series with the pre-engine harness).
        """
        if isinstance(strategy, str):
            strategy = SimilarityStrategy.from_name(strategy)
        primary = getattr(self, "ctx", None)
        # The engine's own context starts with an empty catalog object
        # (not None) so every context derived later — including ones
        # created before the first ``analyze`` — shares the instance and
        # sees later statistics; ``analyze`` merges in place.
        catalog = primary.catalog if primary is not None else StatisticsCatalog()
        return OperatorContext(
            self.network,
            strategy=strategy,
            filters=self._filters,
            rng=rng,
            naive_memo=self.naive_memo,
            verifier_pool=self.verifier_pool,
            edit_kernel=self.edit_kernel,
            gram_scan_memo=self.gram_scan_memo,
            fetch_memo=self.fetch_memo,
            catalog=catalog,
            cost_model=self.cost_model,
            fanout=self.fanout,
        )

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release owned resources (the fan-out thread pool); idempotent.

        Engines without a fan-out installed hold no threads, so calling
        this is optional for them — but harness code that may enable
        ``parallel_fanout`` should always close (or use ``with``).
        """
        if self.fanout is not None:
            self.fanout.shutdown()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- memo lifecycle -----------------------------------------------------------

    def check_mutations(self) -> bool:
        """Drop all workload memos if any peer's store changed.

        Compares the network-wide mutation token
        (:meth:`~repro.overlay.network.PGridNetwork.store_version_token`)
        against the last reading; called automatically by every recorded
        operation and by :meth:`insert`.  Returns True when memos were
        cleared.
        """
        token = self.network.store_version_token()
        if token == self._mutation_token:
            return False
        self._mutation_token = token
        self.clear_memos()
        return True

    def clear_memos(self) -> None:
        """Unconditionally drop every whole-workload memo."""
        for memo in self._memos().values():
            memo.clear()

    def _memos(self) -> dict:
        """The installed whole-workload memos by their ``/stats`` name."""
        named = {
            "naive": self.naive_memo,
            "gram_scan": self.gram_scan_memo,
            "fetch": self.fetch_memo,
        }
        return {name: memo for name, memo in named.items() if memo is not None}

    # -- transport faults --------------------------------------------------------------

    def install_faults(
        self,
        plan: FaultPlan,
        policy: RetryPolicy | None = None,
        mode: FaultMode | str | None = None,
    ) -> FaultInjector:
        """Put a seeded :class:`FaultPlan` on the network's delivery path.

        ``policy`` tunes retry/backoff/failover (defaults to
        :class:`RetryPolicy`); ``mode`` optionally switches
        :attr:`fault_mode` in the same call.  A no-op plan leaves every
        measured series bit-identical (the injector stays inactive).
        """
        injector = self.network.install_faults(plan, policy)
        if mode is not None:
            self.fault_mode = mode
        return injector

    def clear_faults(self) -> None:
        """Return to the healthy, fault-free transport."""
        self.network.clear_faults()

    @property
    def fault_mode(self) -> str:
        """``"strict"`` (raise on dark partitions) or ``"degraded"``.

        Degraded semantics: when retries and replica failover are
        exhausted, operators return partial results and the query's
        :class:`~repro.overlay.messages.CostReport` carries a
        :class:`~repro.overlay.faults.Completeness` record (covered
        key-space fraction, dark partitions, dropped candidates) instead
        of the operation raising.
        """
        return self.network.fault_mode.value

    @fault_mode.setter
    def fault_mode(self, value: FaultMode | str) -> None:
        self.network.fault_mode = FaultMode.from_name(value)

    # -- data management --------------------------------------------------------------

    def insert(self, triples: Iterable[Triple], respect_online: bool = False) -> int:
        """Index and place triples; returns the number of entries stored.

        The explicit write path: the network reports what was applied
        where, only the memo entries those index entries name are
        invalidated, and the statistics catalog is patched in place;
        :meth:`last_write` tells what that came to.  ``respect_online`` skips offline
        replicas — the churn setting, where inserting while a replica is
        down leaves it divergent until anti-entropy repair
        (:meth:`recover`).
        """
        triples = list(triples)
        entries = list(self.network.entry_factory.entries_for_all(triples))
        applied, writes = self.network.apply_entries(
            entries, respect_online=respect_online
        )
        self._last_write = WriteReport(
            applied, len(writes), self._note_write(writes)
        )
        self._patch_statistics(triples, sign=+1)
        return applied

    def delete(self, triples: Iterable[Triple], respect_online: bool = False) -> int:
        """Remove triples' index entries; returns entries actually removed.

        The inverse of :meth:`insert`: callers pass the exact triples to
        retract, every index entry they induced is removed from the
        responsible partitions' (optionally only online) replicas, and
        memo/statistics maintenance follows the same delta path.
        Deleting triples that were never stored is a no-op that
        invalidates nothing.
        """
        triples = list(triples)
        entries = list(self.network.entry_factory.entries_for_all(triples))
        applied, writes = self.network.apply_entries(
            entries, respect_online=respect_online, remove=True
        )
        self._last_write = WriteReport(
            applied, len(writes), self._note_write(writes)
        )
        if applied:
            self._patch_statistics(triples, sign=-1)
        return applied

    # -- churn ------------------------------------------------------------------------

    @property
    def churn(self) -> ChurnController:
        """The engine-owned churn driver (created lazily, seeded)."""
        if self._churn is None:
            self._churn = ChurnController(
                self.network, seed=self.config.seed + 29
            )
        return self._churn

    def fail_peers(
        self, peer_ids: Sequence[int], protect_partitions: bool = False
    ) -> ChurnReport:
        """Take specific peers offline through the engine.

        Going offline changes no store, so no memo entry or statistic is
        touched — partition-keyed memos stay valid because replicas hold
        identical data and cached entries carry per-store version checks.
        This is the churn half of the write path: stores can no longer
        change behind the engine's back, and peer failure/recovery is
        explicit instead of reaching into the network.
        """
        return self.churn.fail_peers(
            list(peer_ids), protect_partitions=protect_partitions
        )

    def fail_fraction(
        self, fraction: float, protect_partitions: bool = True
    ) -> ChurnReport:
        """Take a random fraction of peers offline through the engine."""
        return self.churn.fail_fraction(
            fraction, protect_partitions=protect_partitions
        )

    def recover(
        self, repair: bool = True, charge_messages: bool = False
    ) -> "RecoveryReport":
        """Bring every offline peer back; optionally run anti-entropy.

        Recovery alone changes no store.  With ``repair`` (the default)
        the engine audits replica consistency and repairs each divergent
        partition (writes missed while a replica was down).  Repair
        rewrites a lagging replica under keys no entry list names, so
        within a repaired partition only what the replicas it left alone
        answered stays cached — a fail/recover cycle with zero net data
        change leaves every memo intact.  ``charge_messages`` prices the
        anti-entropy traffic on the tracer under the ``repair`` phase.
        """
        from repro.overlay.replication import audit_replicas, repair_partition

        recovered = self.churn.recover_all()
        report = RecoveryReport(recovered_peers=recovered)
        if not repair:
            return report
        audit = audit_replicas(self.network)
        report.divergent_partitions = list(audit.divergent_partitions)
        repaired: dict[int, PartitionWrite] = {}
        for partition_index in audit.divergent_partitions:
            stores = [
                self.network.peer(peer_id).store
                for peer_id in self.network.partition(partition_index).peer_ids
            ]
            before = [store.version for store in stores]
            report.entries_copied += repair_partition(
                self.network, partition_index, charge_messages=charge_messages
            )
            repaired[partition_index] = PartitionWrite(
                entries=(),
                removed=False,
                versions={
                    version: version
                    for version, store in zip(before, stores)
                    if store.version == version
                },
                uniform=False,
            )
        self._note_write(repaired)
        return report

    # -- write-path maintenance ---------------------------------------------------------

    def _note_write(self, writes: dict[int, PartitionWrite]) -> dict[str, int]:
        """Apply one engine-routed write's memo effect; returns, per
        installed memo, the records dropped.

        Re-reads the network mutation token (so :meth:`check_mutations`
        does not later mistake this write for an out-of-band one), then
        invalidates what ``writes`` names — the fetch and gram-scan memos
        by written entry, the naive memo by written partition.
        """
        self._mutation_token = self.network.store_version_token()
        memos = self._memos()
        if not writes:
            return dict.fromkeys(memos, 0)
        return {name: memo.note_write(writes) for name, memo in memos.items()}

    def _patch_statistics(self, triples: Sequence[Triple], sign: int) -> None:
        """Delta-maintain the statistics catalog for an applied write."""
        catalog = self.ctx.catalog
        if catalog is not None and catalog.by_attribute:
            catalog.apply_triples_delta(triples, sign, self.config)

    # -- VQL ----------------------------------------------------------------------------

    def query(self, text: str, initiator_id: int | None = None) -> QueryResult:
        """Parse, plan and execute a VQL query; records its cost.

        When :meth:`analyze` has been run, plans are ordered by estimated
        cardinalities from the collected statistics, and adaptive-mode
        strategy decisions (with predicted and measured cost) ride on
        ``result.cost.decisions``.
        """
        self.check_mutations()
        session = self._begin_fault_session()
        verifier_before = self._verifier_snapshot()
        result = self.executor.execute_text(text, initiator_id)
        result.cost.verifier = self._verifier_delta(verifier_before)
        if session is not None:
            result.cost.completeness = session.completeness()
        self._last_cost = result.cost
        self.stats.record(result.cost)
        return result

    def analyze(
        self,
        attributes: Sequence[str],
        sample_partitions: int = 4,
    ) -> StatisticsCatalog:
        """Collect overlay statistics for ``attributes`` (cost charged).

        The catalog is retained on the engine's context and consulted by
        both the cost-based planner and the adaptive strategy selection.
        Repeated calls merge: each attribute keeps its latest summary.
        """
        with self.recorded():
            collected = collect_statistics(
                self.ctx, attributes, sample_partitions
            )
        if self.ctx.catalog is None:
            self.ctx.catalog = collected
        else:
            # Merge in place: contexts handed out before this call share
            # the catalog object by reference and must see the update.
            self.ctx.catalog.by_attribute.update(collected.by_attribute)
        return self.ctx.catalog

    def explain(self, text: str) -> str:
        """The physical plan VQL text would execute, without running it."""
        from repro.query.parser import parse
        from repro.query.planner import plan

        return plan(parse(text), self.ctx.catalog).explain()

    # -- cost model access -------------------------------------------------------------

    def predict_similar(
        self, search: str, attribute: str, d: int
    ) -> dict[str, "object"]:
        """Per-strategy cost predictions for one similarity query."""
        return self.cost_model.predict_all(
            search, attribute, d, catalog=self.ctx.catalog
        )

    def last_decisions(self) -> list[StrategyDecision]:
        """Adaptive decisions of the most recent recorded operation."""
        return list(self._last_cost.decisions)

    # -- direct operator access ------------------------------------------------------------

    def similar(
        self,
        search: str,
        attribute: str,
        d: int,
        strategy: SimilarityStrategy | str | None = None,
    ) -> SimilarResult:
        """``Similar(s, a, d)`` — instance level; ``attribute=''`` for schema."""
        if isinstance(strategy, str):
            strategy = SimilarityStrategy.from_name(strategy)
        with self.recorded():
            return similar(self.ctx, search, attribute, d, strategy=strategy)

    def similar_numeric(
        self, attribute: str, center: float, distance: float
    ) -> list[MatchedObject]:
        """Numeric similarity: values within ``distance`` of ``center``."""
        with self.recorded():
            return numeric_similar(self.ctx, attribute, center, distance)

    def sim_join(
        self, left_attribute: str, right_attribute: str, d: int, **kwargs
    ) -> SimJoinResult:
        """``SimJoin(ln, rn, d)`` over the full left column (Algorithm 3)."""
        with self.recorded():
            return sim_join(self.ctx, left_attribute, right_attribute, d, **kwargs)

    def sim_join_anchored(
        self, left_attribute: str, search: str, right_attribute: str, d: int
    ) -> SimJoinResult:
        """The evaluation workload's anchored similarity join."""
        with self.recorded():
            return anchored_sim_join(
                self.ctx, left_attribute, search, right_attribute, d
            )

    def top_n(
        self,
        attribute: str,
        n: int,
        rank: RankFunction | str = RankFunction.NN,
        reference: float = 0.0,
    ) -> TopNResult:
        """Numeric top-N (Algorithm 4) with MIN/MAX/NN ranking."""
        if isinstance(rank, str):
            rank = RankFunction(rank.upper())
        with self.recorded():
            return top_n_numeric(
                self.ctx, attribute, n, rank, reference, fetch_full_objects=True
            )

    def top_n_string(
        self, attribute: str, search: str, n: int, max_distance: int = 5
    ) -> TopNResult:
        """String nearest-neighbour top-N (iterative deepening)."""
        with self.recorded():
            return top_n_string_nn(self.ctx, attribute, search, n, max_distance)

    def lookup(self, oid: str) -> tuple[Triple, ...]:
        """Fetch the complete object stored under ``key(oid)``."""
        with self.recorded():
            return lookup_object(self.ctx, oid)

    def select(self, attribute: str, value: ValueType) -> list[MatchedObject]:
        """Exact selection ``attribute = value``."""
        with self.recorded():
            return select_equals(self.ctx, attribute, value)

    def keyword(self, value: ValueType) -> list[Triple]:
        """Keyword query: triples with ``value`` under any attribute."""
        with self.recorded():
            return keyword_lookup(self.ctx, value)

    # -- introspection -------------------------------------------------------------------------

    @property
    def n_peers(self) -> int:
        return self.network.n_peers

    @property
    def store_version(self) -> int:
        """The network-wide store mutation token, as currently stored.

        Monotone: every store write (and membership change) anywhere
        bumps it.  The service layer exposes it so clients can tell which
        store state an answer (or a ``/stats`` reading) reflects.
        """
        return self.network.store_version_token()

    def memo_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss/invalidation counters of every installed memo.

        ``invalidations`` counts the records a write named and dropped
        plus the stamp (store version) mismatches met on the read path —
        not the records a write merely carried to a new version.
        """
        return {
            name: {
                "hits": memo.hits,
                "misses": memo.misses,
                "invalidations": memo.invalidations,
                "entries": len(memo),
            }
            for name, memo in self._memos().items()
        }

    def verifier_stats(self) -> dict[str, object]:
        """Kernel identity plus shared-pool counters (``/stats`` payload)."""
        return {"shared_pool": True, **self.verifier_pool.stats()}

    def _verifier_snapshot(self) -> dict[str, int]:
        return self.verifier_pool.counters.as_dict()

    def _verifier_delta(self, before: dict[str, int]) -> dict[str, object]:
        """Kernel-counter delta for one recorded operation."""
        after = self.verifier_pool.counters.as_dict()
        delta: dict[str, object] = {
            key: after[key] - before[key] for key in after
        }
        delta["kernel"] = self.verifier_pool.kernel.name
        return delta

    @property
    def catalog(self) -> StatisticsCatalog | None:
        """The statistics catalog consulted by planner and cost model."""
        return self.ctx.catalog

    @catalog.setter
    def catalog(self, value: StatisticsCatalog | None) -> None:
        self.ctx.catalog = value

    def last_cost(self) -> CostReport:
        """Cost of the most recent recorded operation."""
        return self._last_cost

    def last_write(self) -> WriteReport:
        """What the most recent :meth:`insert` / :meth:`delete` did."""
        return self._last_write

    @contextmanager
    def recorded(self):
        """Charge the wrapped operation's message delta to ``stats``.

        Also re-checks the mutation token (memo validity) and moves any
        adaptive decisions taken during the operation from the context's
        ``decision_log`` to the resulting :class:`CostReport`.  Public
        so composite flows built from raw operator calls — the service
        layer's streaming top-N runs its deepening rounds against
        ``engine.ctx`` directly — can account as *one* recorded
        operation (one :meth:`last_cost` delta, one fault session, one
        ``stats`` entry).
        """
        self.check_mutations()
        session = self._begin_fault_session()
        before = self.network.tracer.snapshot()
        verifier_before = self._verifier_snapshot()
        decision_mark = len(self.ctx.decision_log)
        try:
            yield
        finally:
            after = self.network.tracer.snapshot()
            cost = CostReport.from_delta(before, after)
            # Take this operation's decisions out of the shared log, so
            # a long-lived engine does not keep every decision it made.
            cost.decisions = self.ctx.decision_log[decision_mark:]
            del self.ctx.decision_log[decision_mark:]
            cost.verifier = self._verifier_delta(verifier_before)
            if session is not None:
                cost.completeness = session.completeness()
            self._last_cost = cost
            self.stats.record(cost)

    def _begin_fault_session(self):
        """Fresh per-query fault bookkeeping, or None on a healthy network."""
        injector = self.network.fault_injector
        if injector is None or not injector.active:
            return None
        return injector.begin_session()

    _last_cost: CostReport = CostReport(messages=0, payload_bytes=0)
    _last_write: WriteReport = WriteReport()
