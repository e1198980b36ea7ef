"""Metric names, units, and how raw repeat results become metric values.

``BENCHMARK.json`` declares exactly the names listed here (a tier-1 test
keeps the two in step).  End-to-end values combine the untraced repeats of
one run; per-layer values come from one traced repeat's raw material, the
same dictionary shape whether an engine workload or the HTTP workload
produced it.
"""

from __future__ import annotations

from perf.layers import LAYERS
from perf.stats import median, percentile, ratio

#: ``name -> unit``; every workload reports every one of them.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "read_lat_p50_ms": "ms",
    "write_lat_p50_ms": "ms",
    "sim_messages": "count",
    "sim_bytes": "count",
    "peak_rss_mb": "MB",
}

_LAYER_UNITS = {"calls_per_op": "1/op", "self_ms_per_op": "ms/op", "self_share": "ratio"}

_EXTRA: dict[str, str] = {
    "serve.app.engine_wait_ms_p50": "ms",
    "serve.app.engine_wait_ms_p99": "ms",
    "serve.admission.rejected_share": "ratio",
    "loadgen.late_p99_ms": "ms",
    "engine.memo.naive.hit_rate": "ratio",
    "engine.memo.gram_scan.hit_rate": "ratio",
    "engine.memo.fetch.hit_rate": "ratio",
    "engine.memo.invalidations_per_write": "count",
    "engine.memo.entries_end": "count",
    "query.planner.ms_per_vql": "ms",
    "query.cost.decisions_per_op": "1/op",
    "query.cost.pred_over_actual_p50": "ratio",
    "query.cost.within_2x_share": "ratio",
    "query.statistics.analyze_ms": "ms",
    "query.statistics.delta_ms_per_write": "ms",
    "query.operators.base.oids_per_fetch": "count",
    "query.operators.base.partition_lookups_per_oid": "ratio",
    "query.operators.base.hashes_per_oid": "ratio",
    "overlay.routing.hops_per_route": "count",
    "overlay.routing.failover_msgs_per_op": "1/op",
    "overlay.network.token_ms_per_op": "ms/op",
    "overlay.network.build_s": "s",
    "overlay.messages.msgs_per_charge_call": "ratio",
    "storage.datastore.entries_per_lookup": "count",
    "storage.indexing.entries_per_triple": "count",
    "storage.indexing.stored_bytes_per_user_byte": "ratio",
    "similarity.verify.candidates_per_op": "1/op",
    "similarity.verify.accept_share": "ratio",
    "similarity.verify.memo_hit_share": "ratio",
    "similarity.verify.prefilter_reject_share": "ratio",
    "overlay.replication.repair_ms_per_recover": "ms",
    "overlay.replication.entries_copied_per_recover": "count",
    "trace.overhead_share": "ratio",
    "clock.speed_factor": "ratio",
    # User-visible, but unfit for a relative regression bound (a ladder
    # rung is discrete, a healthy fail share is 0): reported unbounded.
    "max_rate_ok_rps": "1/s",
    "fail_share": "ratio",
}

#: ``name -> unit`` of every per-layer metric, in report order.
PER_LAYER: dict[str, str] = {
    **{
        f"{layer}.{suffix}": unit
        for layer in LAYERS
        for suffix, unit in _LAYER_UNITS.items()
    },
    **_EXTRA,
}


#: Operations per chunk whose p99 is taken: its second-slowest operation.
P99_CHUNK = 100


def _chunks(samples: list[float]) -> list[list[float]]:
    """Consecutive chunks of ``P99_CHUNK``; a short tail joins the last one."""
    count = max(1, len(samples) // P99_CHUNK)
    bounds = [index * P99_CHUNK for index in range(count)] + [len(samples)]
    return [samples[low:high] for low, high in zip(bounds, bounds[1:])]


#: Main-phase kinds that are not reads.
NOT_READS = frozenset({"insert", "delete", "fail", "recover"})


def typical_ms(samples: list[list]) -> float:
    """Share-weighted mean of the per-kind medians of ``[kind, ms]`` samples.

    Every workload is a fixed mix of operation kinds whose latencies form
    separate clusters; the plain median of such a mixture sits in a gap
    between two clusters, where a hair more of one kind moves it by tens of
    per cent.  Each kind's own median is steady, and weighting them by the
    kinds' shares gives a central latency that also moves when *any* kind
    gets slower — which the plain median does not.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, ms in samples:
        by_kind.setdefault(kind, []).append(ms)
    return sum(
        len(values) / len(samples) * median(values) for values in by_kind.values()
    )


def end_to_end(repeats: list[dict]) -> dict[str, float]:
    """Combine one run's untraced repeats into medians.

    Each repeat runs a different slice of the operation stream on a fresh
    build, so samples are pooled across repeats before any percentile.

    * ``ops_per_s`` is the median, over *units* (one pass of a workload's
      fixed operation pattern), of the unit's operations per second — a
      stall inside one unit cannot move it, where a total would absorb it;
    * ``lat_p50_ms`` / ``read_lat_p50_ms`` are :func:`typical_ms` over all
      main-phase operations / over the reads among them;
    * ``write_lat_p50_ms`` is the same idea for the two kinds of write
      batch, which always come in equal numbers: the mean of the
      insert-batch median and the delete-batch median;
    * ``lat_p99_ms`` is the median, over chunks of ``P99_CHUNK``
      consecutive operations, of the chunk's own p99: a single stall delays
      a burst of operations, which would all land in the top 1 % of a
      pooled sample but can spoil only the chunk it fell into;
    * the simulated cost is the sum over every repeat's fixed prefix.
    """
    pooled = [sample for r in repeats for sample in r["ops_ms"]]
    inserts = [x for r in repeats for x in r["insert_ms"]]
    deletes = [x for r in repeats for x in r["delete_ms"]]
    return {
        "setup_s": median([r["setup_s"] for r in repeats]),
        "ops_per_s": median([x for r in repeats for x in r["unit_rates"]]),
        "lat_p50_ms": typical_ms(pooled),
        "lat_p99_ms": median(
            [
                percentile(chunk, 0.99)
                for r in repeats
                for chunk in _chunks([ms for __, ms in r["ops_ms"]])
            ]
        ),
        "read_lat_p50_ms": typical_ms([s for s in pooled if s[0] not in NOT_READS]),
        "write_lat_p50_ms": (median(inserts) + median(deletes)) / 2,
        "sim_messages": sum(r["sim_messages"] for r in repeats),
        "sim_bytes": sum(r["sim_bytes"] for r in repeats),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in repeats]),
    }


def per_layer(trace: dict, attempted: int, failed: int) -> dict[str, float]:
    """Per-layer metric values from one traced repeat's raw material."""
    ops = trace["traced_ops"]
    total_ns = trace["traced_ns"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        entry = trace["layers"].get(layer, {"calls": 0, "self_ns": 0})
        values[f"{layer}.calls_per_op"] = ratio(entry["calls"], ops)
        values[f"{layer}.self_ms_per_op"] = ratio(entry["self_ns"] / 1e6, ops)
        values[f"{layer}.self_share"] = ratio(entry["self_ns"], total_ns)

    counters = trace["counters"]
    memo = trace["memo"]
    verifier = trace["verifier"]
    candidates = sum(verifier.values())
    fetched = counters.get("fetch.oids", 0)
    charge_calls = trace["send_calls"] + trace["bulk_calls"]
    layer_ns = lambda name: trace["layers"].get(name, {}).get("self_ns", 0)  # noqa: E731

    def hit_rate(name: str) -> float:
        stats = memo.get(name, {})
        return ratio(stats.get("hits", 0), stats.get("hits", 0) + stats.get("misses", 0))

    values.update(
        {
            "serve.app.engine_wait_ms_p50": percentile(trace.get("engine_wait_ms", []), 0.50),
            "serve.app.engine_wait_ms_p99": percentile(trace.get("engine_wait_ms", []), 0.99),
            "serve.admission.rejected_share": trace.get("rejected_share", 0.0),
            "loadgen.late_p99_ms": trace.get("late_p99_ms", 0.0),
            "engine.memo.naive.hit_rate": hit_rate("naive"),
            "engine.memo.gram_scan.hit_rate": hit_rate("gram_scan"),
            "engine.memo.fetch.hit_rate": hit_rate("fetch"),
            "engine.memo.invalidations_per_write": trace["invalidations_per_write"],
            "engine.memo.entries_end": trace["memo_entries_end"],
            "query.planner.ms_per_vql": ratio(
                layer_ns("query.planner") / 1e6, trace["traced_vql_ops"]
            ),
            "query.cost.decisions_per_op": ratio(trace["decisions"], trace["all_ops"]),
            "query.cost.pred_over_actual_p50": trace["pred_over_actual_p50"],
            "query.cost.within_2x_share": trace["within_2x_share"],
            "query.statistics.analyze_ms": trace["analyze_ms"],
            "query.statistics.delta_ms_per_write": ratio(
                trace["delta_ns"] / 1e6, trace["traced_writes"]
            ),
            "query.operators.base.oids_per_fetch": ratio(fetched, trace["fetch_calls"]),
            "query.operators.base.partition_lookups_per_oid": ratio(
                trace["scoped_partition_lookups"], fetched
            ),
            "query.operators.base.hashes_per_oid": ratio(trace["scoped_hashes"], fetched),
            "overlay.routing.hops_per_route": ratio(
                trace["traced_route_messages"], trace["route_calls"]
            ),
            "overlay.routing.failover_msgs_per_op": ratio(
                trace["failover_messages"], trace["all_ops"]
            ),
            "overlay.network.token_ms_per_op": ratio(trace["token_ns"] / 1e6, ops),
            "overlay.network.build_s": trace["build_s"],
            "overlay.messages.msgs_per_charge_call": ratio(
                trace["send_calls"] + counters.get("bulk.messages", 0), charge_calls
            ),
            "storage.datastore.entries_per_lookup": ratio(
                counters.get("lookup.entries", 0), trace["lookup_calls"]
            ),
            "storage.indexing.entries_per_triple": ratio(
                counters.get("index.entries", 0), counters.get("index.triples", 0)
            ),
            "storage.indexing.stored_bytes_per_user_byte": ratio(
                counters.get("index.stored_bytes", 0), counters.get("index.user_bytes", 0)
            ),
            "similarity.verify.candidates_per_op": ratio(candidates, trace["all_ops"]),
            "similarity.verify.accept_share": ratio(trace["matches"], candidates),
            "similarity.verify.memo_hit_share": ratio(verifier["memo_hits"], candidates),
            "similarity.verify.prefilter_reject_share": ratio(
                verifier["prefilter_rejected"], candidates
            ),
            "overlay.replication.repair_ms_per_recover": ratio(
                trace["repair_ns"] / 1e6, trace["traced_recovers"]
            ),
            "overlay.replication.entries_copied_per_recover": ratio(
                trace["entries_copied"], trace["recovers"]
            ),
            "trace.overhead_share": ratio(
                ratio(total_ns, ops), ratio(trace["untraced_ns"], trace["untraced_ops"])
            )
            - 1.0
            if trace["untraced_ops"] and ops
            else 0.0,
            "clock.speed_factor": trace["speed_factor"],
            "max_rate_ok_rps": trace.get("max_rate_ok_rps", 0.0),
            "fail_share": ratio(failed, attempted),
        }
    )
    return values


def driver_share(values: dict[str, float]) -> float:
    """What no boundary covers: 1 minus the layers' shares."""
    return 1.0 - sum(values[f"{layer}.self_share"] for layer in LAYERS)
