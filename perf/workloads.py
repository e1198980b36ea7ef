"""The three single-caller workloads and the loop that measures them.

Each workload builds its engines in :meth:`setup`, then yields an endless
stream of :class:`Op`\\ s; :func:`run_repeat` executes them one at a time,
timing only the engine call.  Oracle checks and bookkeeping run between
operations, outside every timer.

The drivers use nothing but ``QueryEngine.build(n_peers, triples, config,
strategy)``, the engine's public query/write/churn methods,
``last_cost()``, ``memo_stats()``, ``verifier_stats()``, ``StoreConfig``
and the dataset generators — no engine option keyword.
"""

from __future__ import annotations

import random
import resource
import sys
import traceback
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from repro.core.config import StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.datasets.paintings import TITLE_ATTRIBUTE, painting_triples
from repro.engine import QueryEngine
from repro.storage.triple import Triple

from perf.clock import SpeedProbe
from perf.inputs import (
    SIZES,
    WRITE_BATCH,
    ZIPF_REDEAL,
    Sizes,
    Spread,
    Zipf,
    shuffled_cycle,
)
from perf.layers import make_tracer
from perf.oracle import Oracle
from perf.paths import OUT_DIR
from perf.stats import median, ratio
from perf.trace import CALLS, SCOPED, SELF_NS

#: Share of similarity-shaped answers the oracle re-computes by brute force.
ORACLE_SAMPLE = 0.02

#: Traced runs alternate blocks of at least this many operations untraced /
#: traced, so both halves see the same drift in memos and data.
TRACE_BLOCK = 24

#: A speed probe (~1 ms) follows a unit when the last one is this old.
PROBE_EVERY_NS = 50_000_000

WRITE_KINDS = ("insert", "delete")

FIG1_STRATEGIES = ("qsamples", "qgrams", "naive", "adaptive")
FIG1_TOP_N = (5, 10, 15)
FIG1_JOIN_D = (1, 2, 3)
TOP_N_MAX_DISTANCE = 5


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def lean_config(seed: int, **changes) -> StoreConfig:
    """Object and instance-gram indexes only — the evaluation's layout."""
    return StoreConfig(
        seed=seed, index_values=False, index_schema_grams=False, **changes
    )


@dataclass
class Op:
    """One operation: what to call, how to price and check it."""

    kind: str
    run: Callable[[], object]
    #: Engine whose ``last_cost()`` prices a read (``None`` for writes/churn).
    engine: QueryEngine | None = None
    #: Oracle comparison of the result; ``None`` when not sampled.
    check: Callable[[object], bool] | None = None
    #: Bookkeeping once the call succeeded (the oracle's live set, ...).
    after: Callable[[object], None] | None = None
    #: Last operation of a unit (repetition / step); runs stop only here.
    ends_unit: bool = False
    #: Matches returned, for ``similarity.verify.accept_share``.
    size: Callable[[object], int] = len
    #: Free-form slot the workload uses to pair results up (fig1's arms).
    slot: tuple | None = None


def _pairs(matches) -> list[tuple[str, float]]:
    return [(m.oid, m.distance) for m in matches]


class Workload:
    """Common scaffolding: corpus, oracle, write-probe batches."""

    name = ""
    attribute = TEXT_ATTRIBUTE

    def __init__(self, seed: int, repeat: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        #: Operation-stream randomness differs per repeat; the corpus does not.
        self.rng = random.Random(seed * 1009 + repeat * 9176 + 11)
        self.corpus = self.make_corpus()
        self.strings = sorted({str(t.value) for t in self.corpus})
        self.oracle = Oracle(self.corpus, ORACLE_SAMPLE, seed * 31 + repeat)
        self.engines: list[QueryEngine] = []
        self.build_s = 0.0
        self.analyze_ms = 0.0
        self._serial = 0

    def make_corpus(self) -> list[Triple]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    @property
    def writer(self) -> QueryEngine:
        """Engine the write probe talks to."""
        return self.engines[-1]

    def build(self, peers: int, config: StoreConfig, strategy: str) -> QueryEngine:
        started = perf_counter()
        engine = QueryEngine.build(peers, self.corpus, config, strategy)
        built = perf_counter()
        engine.analyze([self.attribute])
        self.build_s += built - started
        self.analyze_ms += (perf_counter() - built) * 1e3
        self.engines.append(engine)
        return engine

    # -- shared op factories ---------------------------------------------------

    def fresh_triples(self, count: int, near: Callable[[], str]) -> list[Triple]:
        """New objects whose strings sit one edit away from ``near()``'s."""
        batch = []
        for __ in range(count):
            base = near()
            cut = self.rng.randrange(len(base) + 1)
            value = base[:cut] + self.rng.choice("aeiostnr") + base[cut:]
            batch.append(Triple(f"mut:{self._serial:07d}", self.attribute, value))
            self._serial += 1
        return batch

    def insert_op(self, engine, batch, respect_online=False, **extra) -> Op:
        def run():
            if respect_online:
                return engine.insert(batch, respect_online=True)
            return engine.insert(batch)

        return Op(
            "insert", run,
            after=lambda __: self.oracle.insert(batch), size=lambda __: 0, **extra,
        )

    def delete_op(self, engine, batch, **extra) -> Op:
        return Op(
            "delete", lambda: engine.delete(batch),
            after=lambda __: self.oracle.delete(batch), size=lambda __: 0, **extra,
        )

    def similar_op(self, engine, search: str, d: int, broadcast=False, **extra) -> Op:
        check = None
        if self.oracle.sampled():
            check = lambda r: self.oracle.check_similar(  # noqa: E731
                search, d, _pairs(r.matches), broadcast
            )
        return Op(
            f"similar_d{d}",
            lambda: engine.similar(search, self.attribute, d),
            engine=engine, check=check, size=lambda r: len(r.matches), **extra,
        )

    def top_n_op(
        self, engine, search: str, n: int, max_distance: int, broadcast=False,
        arm: str = "", **extra
    ) -> Op:
        check = None
        if self.oracle.sampled():
            check = lambda r: self.oracle.check_top_n(  # noqa: E731
                search, n, max_distance, _pairs(r.matches), broadcast
            )
        return Op(
            f"{arm}:topn{n}" if arm else f"topn{n}",
            lambda: engine.top_n_string(self.attribute, search, n, max_distance),
            engine=engine, check=check, size=lambda r: len(r.matches), **extra,
        )

    def exact_op(self, engine, value: str, **extra) -> Op:
        return Op(
            "exact",
            lambda: engine.select(self.attribute, value),
            engine=engine,
            check=lambda r: self.oracle.check_exact(value, [m.oid for m in r]),
            **extra,
        )

    def write_probe(self) -> Iterator[Op]:
        """Alternate insert / delete of the same batch: net change zero."""
        near = Spread(self.strings, self.rng)
        for __ in range(self.sizes.write_probes // 2):
            batch = self.fresh_triples(WRITE_BATCH, near)
            yield self.insert_op(self.writer, batch)
            yield self.delete_op(self.writer, batch, ends_unit=True)


class Fig1Replay(Workload):
    """The paper's 6-query mix, replayed on four strategy arms."""

    name = "fig1_replay"

    def make_corpus(self):
        return bible_triples(self.sizes.corpus, seed=self.seed)

    def setup(self):
        config = lean_config(self.seed)
        for strategy in FIG1_STRATEGIES:
            self.build(self.sizes.peers, config, strategy)

    def join_op(self, engine, search: str, d: int, broadcast: bool, arm: str, **extra) -> Op:
        check = None
        if self.oracle.sampled():

            def check(result) -> bool:
                by_left: dict[str, list] = {}
                for pair in result.pairs:
                    by_left.setdefault(pair.left.oid, []).append(
                        (pair.right.oid, pair.right.distance)
                    )
                ok = self.oracle.check_exact(search, by_left)
                for matches in by_left.values():
                    ok &= self.oracle.check_similar(search, d, matches, broadcast)
                return ok

        return Op(
            f"{arm}:join{d}",
            lambda: engine.sim_join_anchored(
                self.attribute, search, self.attribute, d
            ),
            engine=engine, check=check, size=lambda r: len(r.pairs), **extra,
        )

    def ops(self):
        draws = [Spread(self.strings, self.rng) for __ in range(6)]
        repetition = 0
        while True:
            searches = [draw() for draw in draws]
            for arm, engine in enumerate(self.engines):
                broadcast = FIG1_STRATEGIES[arm] == "naive"
                for query, n in enumerate(FIG1_TOP_N):
                    yield self.top_n_op(
                        engine, searches[query], n, TOP_N_MAX_DISTANCE, broadcast,
                        slot=(repetition, query, arm), arm=FIG1_STRATEGIES[arm],
                    )
                for query, d in enumerate(FIG1_JOIN_D, start=3):
                    yield self.join_op(
                        engine, searches[query], d, broadcast,
                        slot=(repetition, query, arm), arm=FIG1_STRATEGIES[arm],
                        ends_unit=arm == len(self.engines) - 1 and d == FIG1_JOIN_D[-1],
                    )
            repetition += 1


class MutateMix(Workload):
    """Write batches beside zipfian reads, with churn episodes."""

    name = "mutate_mix"
    READS_PER_STEP = 10
    CHURN_EVERY = 64
    CHURN_FAIL_FRACTION = 0.25
    CHURN_INSERTS = 16
    CHURN_READS = 20
    POOL = 64

    def make_corpus(self):
        return bible_triples(self.sizes.corpus, seed=self.seed)

    def setup(self):
        self.build(self.sizes.peers, lean_config(self.seed, replication=3), "adaptive")

    def ops(self):
        engine = self.engines[0]
        spread = Spread(self.strings, self.rng)
        pool = [spread() for __ in range(self.POOL)]
        draw = Zipf(pool, self.rng, ZIPF_REDEAL)
        kinds = shuffled_cycle(("d1", "d2", "topn"), self.rng)
        live = list(self.corpus)

        def read(**extra) -> Op:
            kind, search = next(kinds), draw()
            if kind == "topn":
                return self.top_n_op(engine, search, 5, TOP_N_MAX_DISTANCE, **extra)
            return self.similar_op(engine, search, int(kind[1]), **extra)

        step = 0
        while True:
            if step % 2 == 0:
                batch = self.fresh_triples(WRITE_BATCH, draw)
                live.extend(batch)
                yield self.insert_op(engine, batch)
            else:
                batch = []
                for __ in range(WRITE_BATCH):
                    index = self.rng.randrange(len(live))
                    live[index], live[-1] = live[-1], live[index]
                    batch.append(live.pop())
                yield self.delete_op(engine, batch)
            churn = step % self.CHURN_EVERY == self.CHURN_EVERY - 1
            for i in range(self.READS_PER_STEP):
                yield read(ends_unit=i == self.READS_PER_STEP - 1 and not churn)
            if churn:
                yield Op(
                    "fail",
                    lambda: engine.fail_fraction(self.CHURN_FAIL_FRACTION),
                    size=lambda __: 0,
                )
                batch = self.fresh_triples(self.CHURN_INSERTS, draw)
                live.extend(batch)
                yield self.insert_op(engine, batch, respect_online=True)
                for __ in range(self.CHURN_READS):
                    yield read()
                yield Op(
                    "recover", engine.recover,
                    size=lambda __: 0, ends_unit=True,
                )
            step += 1


class LargeOverlay(Workload):
    """Many peers, long strings, strings that rarely repeat."""

    name = "large_overlay"
    attribute = TITLE_ATTRIBUTE
    PATTERN = ("d1",) * 4 + ("d3",) * 3 + ("exact",) * 2 + ("topn",)

    def make_corpus(self):
        return painting_triples(self.sizes.corpus, seed=self.seed)

    def setup(self):
        self.build(self.sizes.peers, lean_config(self.seed), "adaptive")

    def ops(self):
        engine = self.engines[0]
        draws = {kind: Spread(self.strings, self.rng) for kind in set(self.PATTERN)}
        pattern = list(self.PATTERN)
        while True:
            self.rng.shuffle(pattern)  # one unit = one pass: exact mix shares
            for position, kind in enumerate(pattern):
                search = draws[kind]()
                last = position == len(pattern) - 1
                if kind == "exact":
                    yield self.exact_op(engine, search, ends_unit=last)
                elif kind == "topn":
                    yield self.top_n_op(engine, search, 10, 3, ends_unit=last)
                else:
                    yield self.similar_op(engine, search, int(kind[1]), ends_unit=last)


WORKLOADS = {
    cls.name: cls for cls in (Fig1Replay, MutateMix, LargeOverlay)
}


# -- the measured loop ---------------------------------------------------------


@dataclass
class Tally:
    """Everything one repeat records, per operation and in total."""

    #: ``(kind, main_phase, end_ns, elapsed_ns)`` of every operation, in order.
    samples: list[tuple[str, bool, int, int]] = field(default_factory=list)
    #: ``(end_ns, operations, summed_ns)`` of each completed main-phase unit.
    units: list[tuple[int, int, int]] = field(default_factory=list)
    unit_ops: int = 0
    unit_ns: int = 0
    attempted: int = 0
    failed: int = 0
    sim_messages: int = 0
    sim_bytes: int = 0
    #: Set once the fixed prefix is complete: the simulated cost stops there.
    sim_closed: bool = False
    # Split by whether the operation ran traced: [untraced, traced].
    ops: list[int] = field(default_factory=lambda: [0, 0])
    op_ns: list[int] = field(default_factory=lambda: [0, 0])
    # Read off results and cost reports, over every operation.
    failover_messages: int = 0
    decisions: int = 0
    pred_over_actual: list[float] = field(default_factory=list)
    matches: int = 0
    recovers: int = 0
    entries_copied: int = 0
    # Denominators for wrapper-side counts: traced operations only.
    traced_route_messages: int = 0
    traced_writes: int = 0
    traced_recovers: int = 0
    #: fig1: ``slot -> messages`` for the adaptive-vs-cheapest comparison.
    arm_messages: dict[tuple, int] = field(default_factory=dict)


def _execute(op: Op, tally: Tally, tracer, traced: bool, main: bool) -> None:
    tally.attempted += 1
    if tracer is not None:
        tracer.op_id = tally.attempted
    started = perf_counter_ns()
    try:
        result = op.run()
    except Exception:
        tally.failed += 1
        traceback.print_exc(file=sys.stderr)
        return
    ended = perf_counter_ns()
    elapsed = ended - started
    tally.ops[traced] += 1
    tally.op_ns[traced] += elapsed
    tally.samples.append((op.kind, main, ended, elapsed))
    if main:
        tally.unit_ops += 1
        tally.unit_ns += elapsed
    cost = op.engine.last_cost() if op.engine is not None else None
    if cost is not None and main and not tally.sim_closed:
        tally.sim_messages += cost.messages
        tally.sim_bytes += cost.payload_bytes
    if cost is not None:
        tally.failover_messages += cost.by_phase.get("failover", 0)
        tally.failover_messages += cost.by_phase.get("retry", 0)
        tally.decisions += len(cost.decisions)
        for decision in cost.decisions:
            if decision.actual_messages:
                tally.pred_over_actual.append(
                    decision.predicted.messages / decision.actual_messages
                )
        if traced:
            tally.traced_route_messages += cost.by_type.get("route", 0)
    tally.matches += op.size(result)
    tally.traced_writes += traced and op.kind in WRITE_KINDS
    if op.kind == "recover":
        tally.recovers += 1
        tally.traced_recovers += traced
        tally.entries_copied += result.entries_copied
    if op.slot is not None and cost is not None:
        tally.arm_messages[op.slot] = cost.messages
    if op.after is not None:
        op.after(result)
    if op.check is not None and not op.check(result):
        tally.failed += 1
        print(f"oracle mismatch on {op.kind}", file=sys.stderr)


def _memo_totals(engines) -> dict[str, dict[str, int]]:
    totals: dict[str, dict[str, int]] = {}
    for engine in engines:
        for name, stats in engine.memo_stats().items():
            bucket = totals.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                bucket[key] += value
    return totals


def _verifier_totals(engines) -> dict[str, int]:
    totals = dict.fromkeys(("computed", "memo_hits", "prefilter_rejected"), 0)
    for engine in engines:
        stats = engine.verifier_stats()
        for key in totals:
            totals[key] += int(stats.get(key, 0))
    return totals


def run_repeat(
    name: str, seed: int, repeat: int, seconds: float, scale: str, trace: bool
) -> dict:
    """Set up one workload from scratch and measure it for ``seconds``.

    With ``trace`` the run alternates untraced and traced blocks and the
    result carries ``trace`` (the per-layer raw material); without, it
    carries the end-to-end raw material only.
    """
    sizes = SIZES[scale][name]
    tracer = make_tracer() if trace else None
    probe = SpeedProbe()
    probe.burst()
    started = perf_counter_ns()
    workload = WORKLOADS[name](seed, repeat, sizes)
    workload.setup()
    setup_raw_s = (perf_counter_ns() - started) / 1e9
    probe.burst()
    setup_factor = probe.factor()

    tally = Tally()
    memo_before = _memo_totals(workload.engines)
    verifier_before = _verifier_totals(workload.engines)
    budget_ns = int(seconds * 1e9)
    traced = False
    since_flip = 0
    rss_mb = 0.0

    def step(op: Op, main: bool) -> None:
        nonlocal traced, since_flip
        _execute(op, tally, tracer, traced, main)
        since_flip += 1
        if not op.ends_unit:
            return
        if perf_counter_ns() - probe.at_ns[-1] >= PROBE_EVERY_NS:
            probe.sample()
        # Flip only between units, so a rare multi-operation episode (churn:
        # fail, write, reads, recover) is traced or untraced as a whole.
        if tracer is not None and since_flip >= TRACE_BLOCK:
            traced, since_flip = not traced, 0
            tracer.install() if traced else tracer.uninstall()

    try:
        for op in workload.ops():
            step(op, main=True)
            if op.ends_unit:
                tally.units.append((perf_counter_ns(), tally.unit_ops, tally.unit_ns))
                tally.unit_ops = tally.unit_ns = 0
                if len(tally.units) == sizes.min_ops:
                    # The fixed prefix is done: close the simulated cost, and
                    # read memory here, where every machine did equal work.
                    tally.sim_closed = True
                    rss_mb = peak_rss_mb()
                if tally.sim_closed and sum(tally.op_ns) >= budget_ns:
                    break
        for op in workload.write_probe():
            step(op, main=False)
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe.sample()

    def ms_at_reference_speed(chosen) -> list[float]:
        return [ns / 1e6 / probe.factor_at(end) for __, __, end, ns in chosen]

    main = [sample for sample in tally.samples if sample[1]]
    result = {
        "workload": name,
        "setup_s": setup_raw_s / setup_factor,
        "unit_rates": [
            ops / (ns / 1e9) * probe.factor_at(end) for end, ops, ns in tally.units
        ],
        # Main-phase operations in execution order: ``[kind, ms]``.
        "ops_ms": [
            [sample[0], ms] for sample, ms in zip(main, ms_at_reference_speed(main))
        ],
        # Write batches, wherever they ran: a workload either writes in its
        # main phase or runs the write probe, never both.
        **{
            f"{kind}_ms": ms_at_reference_speed(
                [sample for sample in tally.samples if sample[0] == kind]
            )
            for kind in WRITE_KINDS
        },
        "sim_messages": tally.sim_messages,
        "sim_bytes": tally.sim_bytes,
        "sim_units": sizes.min_ops,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "oracle_checked": workload.oracle.checked,
        "peak_rss_mb": rss_mb,
        # As the wall clock saw it, before scaling to reference speed.
        "raw": {
            "setup_s": setup_raw_s,
            "ops": len(main),
            "op_seconds": sum(sample[3] for sample in main) / 1e9,
            "speed_factor": probe.factor(),
            "setup_speed_factor": setup_factor,
            "probes": len(probe.took_ns),
        },
    }
    if tracer is not None:
        result["trace"] = _trace_material(
            workload, tally, tracer, memo_before, verifier_before
        )
        result["trace"]["speed_factor"] = probe.factor()
        result["unrestored"] = tracer.unrestored()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{name}.json")
    return result


def _within_2x(arm_messages: dict[tuple, int], arms: int) -> list[bool]:
    """Per query: did the adaptive (last) arm stay within 2x of the cheapest
    fixed arm?  Empty unless the workload has several arms."""
    verdicts = []
    for (repetition, query, arm), messages in arm_messages.items():
        if arm != arms - 1 or arms < 2:
            continue
        fixed = [arm_messages.get((repetition, query, a)) for a in range(arms - 1)]
        if None not in fixed:
            verdicts.append(messages <= 2 * min(fixed))
    return verdicts


def _trace_material(workload, tally, tracer, memo_before, verifier_before) -> dict:
    """Raw per-layer numbers of one traced repeat (see ``perf.metrics``)."""
    window = tracer.snapshot()
    memo_after = _memo_totals(workload.engines)
    verifier = _verifier_totals(workload.engines)
    memo = {
        name: {key: stats[key] - memo_before[name][key] for key in stats}
        for name, stats in memo_after.items()
    }
    within = _within_2x(tally.arm_messages, len(workload.engines))
    cell = lambda name: tracer.boundary_cell(window, name)  # noqa: E731
    return {
        "layers": tracer.layer_totals(window),
        "boundaries": tracer.report(window),
        "counters": window.counters,
        "traced_ops": tally.ops[1],
        "traced_ns": tally.op_ns[1],
        "untraced_ops": tally.ops[0],
        "untraced_ns": tally.op_ns[0],
        "all_ops": sum(tally.ops),
        "token_ns": cell("PGridNetwork.store_version_token")[SELF_NS],
        "delta_ns": cell("StatisticsCatalog.apply_triples_delta")[SELF_NS],
        "repair_ns": cell("audit_replicas")[SELF_NS] + cell("repair_partition")[SELF_NS],
        "route_calls": cell("Router.route")[CALLS],
        "fetch_calls": cell("OperatorContext.fetch_objects")[CALLS],
        "send_calls": cell("MessageTracer.send")[CALLS],
        "bulk_calls": cell("MessageTracer.send_bulk")[CALLS],
        "lookup_calls": cell("LocalDataStore.lookup")[CALLS],
        "scoped_partition_lookups": cell("PGridNetwork.partition_for")[SCOPED],
        "scoped_hashes": cell("uniform_key")[SCOPED],
        "traced_vql_ops": 0,
        "traced_route_messages": tally.traced_route_messages,
        "traced_writes": tally.traced_writes,
        "traced_recovers": tally.traced_recovers,
        "failover_messages": tally.failover_messages,
        "decisions": tally.decisions,
        "pred_over_actual_p50": median(tally.pred_over_actual),
        "within_2x_share": ratio(sum(within), len(within)),
        "matches": tally.matches,
        "recovers": tally.recovers,
        "entries_copied": tally.entries_copied,
        "memo": memo,
        "invalidations_per_write": ratio(
            sum(stats["invalidations"] for stats in memo.values()),
            sum(sample[0] in WRITE_KINDS for sample in tally.samples),
        ),
        "memo_entries_end": sum(s["entries"] for s in memo_after.values()),
        "verifier": {key: verifier[key] - verifier_before[key] for key in verifier},
        "build_s": workload.build_s,
        "analyze_ms": workload.analyze_ms,
    }
