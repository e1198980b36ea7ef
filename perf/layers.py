"""The layer table: which public callables mark each layer's boundary.

Layers are named after the repo's modules.  A target is
``"module:qualified.name"``; :class:`perf.trace.Tracer` wraps it for the
traced run only.  Renaming or deleting one of these functions in ``src/``
does not break the benchmark: the boundary then reports
``boundary_missing`` with zero calls and its time falls to the enclosing
layer.

``serve.http`` is special: its self time is what the *client* waits beyond
the server-side ``QueryService.handle`` span and the stream drain, so it
includes the HTTP parser, the JSON encoder's socket writes, the event
loop and loopback itself.  ``write_response`` is wrapped only to find the
stream drains.
"""

from __future__ import annotations

from perf.trace import Tracer

LAYERS: dict[str, tuple[str, ...]] = {
    "serve.http": ("repro.serve.http:write_response",),
    "serve.app": ("repro.serve.app:QueryService.handle",),
    "serve.admission": (
        "repro.serve.admission:AdmissionController.admit",
        "repro.serve.admission:Ticket.finish",
    ),
    "engine": tuple(
        f"repro.engine:QueryEngine.{name}"
        for name in (
            "similar",
            "top_n_string",
            "sim_join_anchored",
            "select",
            "query",
            "insert",
            "delete",
            "fail_fraction",
            "recover",
            "analyze",
            "check_mutations",
        )
    ),
    "query.planner": (
        "repro.query.parser:parse",
        "repro.query.planner:plan",
    ),
    "query.executor": ("repro.query.executor:Executor.execute",),
    "query.cost": (
        "repro.query.cost:StrategyCostModel.choose",
        "repro.query.cost:StrategyCostModel.predict_all",
    ),
    "query.statistics": (
        "repro.query.statistics:collect_statistics",
        "repro.query.statistics:StatisticsCatalog.apply_triples_delta",
    ),
    "query.operators": (
        "repro.query.operators.similar:similar",
        "repro.query.operators.naive:naive_similar",
        "repro.query.operators.topn:top_n_string_nn",
        "repro.query.operators.simjoin:anchored_sim_join",
        "repro.query.operators.exact:select_equals",
    ),
    "query.operators.base": (
        "repro.query.operators.base:OperatorContext.fetch_objects",
        "repro.query.operators.base:FetchObjectsMemo.triples_for",
    ),
    "overlay.routing": tuple(
        f"repro.overlay.routing:Router.{name}"
        for name in (
            "route",
            "route_many",
            "multicast_prefix",
            "send_result",
            "send_delegate",
            "send_broadcast",
            "send_broadcast_fanout",
            "send_broadcast_failover",
        )
    ),
    "overlay.network": tuple(
        f"repro.overlay.network:PGridNetwork.{name}"
        for name in (
            "partition_for",
            "partitions_under",
            "store_version_token",
            "apply_entries",
        )
    ),
    "overlay.hashing": (
        "repro.overlay.hashing:uniform_key",
        "repro.overlay.hashing:CompositeKeyCodec.oid_key",
        "repro.overlay.hashing:CompositeKeyCodec.value_key",
        "repro.overlay.hashing:CompositeKeyCodec.schema_gram_key",
        "repro.overlay.hashing:CompositeKeyCodec.attr_value_key",
    ),
    "overlay.messages": (
        "repro.overlay.messages:MessageTracer.send",
        "repro.overlay.messages:MessageTracer.send_bulk",
        "repro.overlay.messages:MessageTracer.snapshot",
        "repro.overlay.messages:CostReport.from_delta",
    ),
    "overlay.replication": (
        "repro.overlay.replication:audit_replicas",
        "repro.overlay.replication:repair_partition",
        "repro.overlay.churn:ChurnController.fail_fraction",
        "repro.overlay.churn:ChurnController.recover_all",
    ),
    "storage.datastore": tuple(
        f"repro.storage.datastore:LocalDataStore.{name}"
        for name in (
            "lookup",
            "prefix_scan",
            "range_scan",
            "entries_of_kind_prefix",
            "add_bulk",
            "add",
            "remove",
        )
    ),
    "storage.indexing": (
        "repro.storage.indexing:EntryFactory.entries_for_all",
        "repro.storage.qgrams:qgram_tuples",
        "repro.storage.qgrams:qgram_sample",
    ),
    "similarity.verify": (
        "repro.similarity.verify:BatchVerifier.distances",
        "repro.similarity.verify:BatchVerifier.within",
        "repro.similarity.verify:VerifierPool.get",
    ),
}

#: Layers whose every call is kept as a span record; the rest are hot
#: leaves (10^4..10^5 calls per run) and only aggregate count and self time.
RECORDED_LAYERS = frozenset(
    {
        "serve.http",
        "serve.app",
        "serve.admission",
        "engine",
        "query.planner",
        "query.executor",
        "query.cost",
        "query.statistics",
        "query.operators",
        "overlay.replication",
    }
)

FETCH_OBJECTS = "repro.query.operators.base:OperatorContext.fetch_objects"

#: Boundaries that open a scope: calls made anywhere beneath them are also
#: counted as "scoped", which is how re-hashes and repeated partition
#: lookups *per fetched oid* are told from the same calls made elsewhere.
SCOPES = frozenset({FETCH_OBJECTS})


# -- count hooks: ``hook(counters, args, kwargs, result) -> span tag`` ------------


def _add(counters: dict, key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


def _count_fetch(counters, args, kwargs, result):
    _add(counters, "fetch.oids", len(result))


def _count_lookup(counters, args, kwargs, result):
    _add(counters, "lookup.entries", len(result))


def _count_bulk(counters, args, kwargs, result):
    count = kwargs["count"] if "count" in kwargs else args[2]
    _add(counters, "bulk.messages", count)


def _count_entries(counters, args, kwargs, result):
    # ``result`` is the drained entry list (see Tracer: generator boundaries).
    triples = {entry.triple for entry in result}
    _add(counters, "index.triples", len(triples))
    _add(counters, "index.entries", len(result))
    _add(counters, "index.user_bytes", sum(t.payload_size() for t in triples))
    _add(counters, "index.stored_bytes", sum(e.payload_size() for e in result))


def _tag_handle(counters, args, kwargs, result):
    return (args[1].path, result.status)


def _tag_write_response(counters, args, kwargs, result):
    return "stream" if args[1].stream is not None else None


HOOKS = {
    FETCH_OBJECTS: _count_fetch,
    "repro.storage.datastore:LocalDataStore.lookup": _count_lookup,
    "repro.overlay.messages:MessageTracer.send_bulk": _count_bulk,
    "repro.storage.indexing:EntryFactory.entries_for_all": _count_entries,
    "repro.serve.app:QueryService.handle": _tag_handle,
    "repro.serve.http:write_response": _tag_write_response,
}


def make_tracer(table: dict[str, tuple] | None = None) -> Tracer:
    """A tracer over the declared table (tests pass their own)."""
    return Tracer(
        table if table is not None else LAYERS,
        recorded_layers=RECORDED_LAYERS,
        scopes=SCOPES,
        hooks=HOOKS,
    )
