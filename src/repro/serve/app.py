"""The query service application object.

:class:`QueryService` is the framework-free core of the service layer:
a route table mapping ``(method, path)`` to async handlers that parse
JSON requests, run the engine, and render JSON responses — with no
socket code anywhere.  The asyncio HTTP server (:mod:`repro.serve.http`)
feeds it parsed :class:`Request` objects; the test suite also calls
:meth:`QueryService.handle` directly, so "in-process" and
"over HTTP" exercise the exact same application path.

Endpoints
---------

=======  ======================  ====================================
GET      ``/healthz``            liveness: peers, partitions, uptime
GET      ``/stats``              engine totals + admission counters
POST     ``/mutate/insert``      ``{triples: [{oid, attribute, value}]}``
POST     ``/mutate/delete``      same body; removes matching entries
POST     ``/query/exact``        ``{attribute, value}``
POST     ``/query/similar``      ``{search, attribute, d, strategy?}``
POST     ``/query/topn``         ``{attribute, search, n, max_distance?}``
POST     ``/query/topn/stream``  same body; chunked NDJSON delivery
POST     ``/query/vql``          ``{text, initiator?}``
=======  ======================  ====================================

Every query response carries the operation's
:class:`~repro.overlay.messages.CostReport` (message count, payload
bytes, per-phase breakdown) and — in adaptive mode — the recorded
:class:`~repro.query.cost.StrategyDecision` list.  Under an installed
fault plan in ``degraded`` mode, partial answers map to HTTP **206
Partial Content** with the :class:`~repro.overlay.faults.Completeness`
record (covered key-space mass, dark partitions, dropped candidates) in
the payload.

Concurrency model: the engine is synchronous and its cost accounting
(tracer snapshot deltas) needs exclusive access, so every engine call
runs inline on the event-loop thread, one at a time.  A handler that
calls the engine inline never awaits, so two plain requests cannot
interleave.  A thread would buy no parallelism: the engine holds the
GIL while it computes, and handing each call to a worker thread cost
more in GIL hand-offs than it overlapped.  The loop is blocked for one
engine call at a time (about 0.4 ms at p50 and 2.7 ms at p99 on the
``serve_http`` mix), below CPython's 5 ms switch interval, which
already bounded the loop's wait while a threaded engine computed.  The
one place an engine window spans an ``await`` is the streamed top-N,
which yields chunks between deepening rounds inside one
:meth:`~repro.engine.QueryEngine.recorded` window; an
:class:`asyncio.Lock` keeps every other engine call out of that window.
:class:`~repro.serve.admission.AdmissionController` bounds how many
admitted requests may wait on that lock.

Streaming top-N replays the serial operator's iterative deepening
(round ``d`` runs ``Similar(search, attribute, d)``) but emits each
round's *new* matches as soon as the round completes.  Because a match
first found in round ``d`` has edit distance exactly ``d``, streaming
per-round batches sorted by ``(distance, oid)`` and truncating at ``n``
reproduces :func:`~repro.query.operators.topn.top_n_string_nn`'s final
ranked list bit for bit — the test suite asserts that equivalence.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter
from collections.abc import AsyncIterator, Awaitable, Callable
from dataclasses import dataclass, field

from repro.core.config import SimilarityStrategy
from repro.core.errors import ConfigError, ReproError
from repro.engine import QueryEngine
from repro.query.operators.similar import similar
from repro.query.operators.topn import MAX_ROUNDS, top_n_string_nn
from repro.serve.admission import AdmissionController, Ticket
from repro.storage.triple import Triple

#: Nominal predicted message cost for point lookups (exact / VQL parse
#: cost is dominated by routing, O(log n) hops) — only used to weigh
#: these requests against the admission cost budget.
POINT_QUERY_PREDICTED_MESSAGES = 8.0

#: Request bodies above this size are rejected outright (413).
MAX_BODY_BYTES = 1 << 20


class BadRequest(ReproError):
    """Malformed request payload; rendered as HTTP 400."""


@dataclass
class Request:
    """One parsed HTTP request, transport-independent."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The request body as a JSON object (empty body = ``{}``)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except ValueError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload


@dataclass
class Response:
    """One response: a JSON payload or a chunked NDJSON stream."""

    status: int
    payload: dict | None = None
    headers: dict[str, str] = field(default_factory=dict)
    #: When set, the transport streams these pre-encoded chunks with
    #: ``Transfer-Encoding: chunked`` and ignores ``payload``.
    stream: AsyncIterator[bytes] | None = None

    def body_bytes(self) -> bytes:
        if self.payload is None:
            return b""
        return (json.dumps(self.payload) + "\n").encode()


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`QueryService`.

    ``max_inflight`` / ``cost_budget`` parameterize the
    :class:`~repro.serve.admission.AdmissionController`;
    ``default_top_n_max_distance`` caps the deepening radius when a
    top-N request does not specify one.
    """

    max_inflight: int = 8
    cost_budget: float = 0.0
    default_top_n_max_distance: int = 5

    def __post_init__(self) -> None:
        if not 0 <= self.default_top_n_max_distance < MAX_ROUNDS:
            raise ConfigError(
                "default_top_n_max_distance must be in [0, "
                f"{MAX_ROUNDS}), got {self.default_top_n_max_distance}"
            )


Handler = Callable[[Request], Awaitable[Response]]


class QueryService:
    """The engine behind a service boundary; owns the engine's lifecycle.

    The service closes its engine on :meth:`close` (releasing fan-out
    threads), so server entry points get leak-free shutdown by
    construction::

        with QueryService(engine) as service:
            ...  # await service.handle(request)
    """

    def __init__(
        self, engine: QueryEngine, config: ServiceConfig | None = None
    ):
        self.engine = engine
        self.config = config or ServiceConfig()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            cost_budget=self.config.cost_budget,
        )
        self.started_at = time.monotonic()
        self.served_by_endpoint: Counter[str] = Counter()
        self.strategy_tally: Counter[str] = Counter()
        self._engine_lock = asyncio.Lock()
        self._closed = False
        self.routes: dict[tuple[str, str], Handler] = {
            ("GET", "/healthz"): self.handle_healthz,
            ("GET", "/stats"): self.handle_stats,
            ("POST", "/mutate/insert"): self.handle_insert,
            ("POST", "/mutate/delete"): self.handle_delete,
            ("POST", "/query/exact"): self.handle_exact,
            ("POST", "/query/similar"): self.handle_similar,
            ("POST", "/query/topn"): self.handle_top_n,
            ("POST", "/query/topn/stream"): self.handle_top_n_stream,
            ("POST", "/query/vql"): self.handle_vql,
        }

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close the engine; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.engine.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch -----------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        """Route one request; never raises for request-shaped problems."""
        if len(request.body) > MAX_BODY_BYTES:
            return _error(413, "request body too large")
        handler = self.routes.get((request.method, request.path))
        if handler is None:
            known_paths = {path for __, path in self.routes}
            if request.path in known_paths:
                return _error(405, f"method {request.method} not allowed")
            return _error(404, f"no route for {request.path}")
        try:
            response = await handler(request)
        except BadRequest as exc:
            return _error(400, str(exc))
        except ReproError as exc:
            # Engine-level rejection of a well-formed but unservable
            # request (unknown attribute, VQL syntax, strict-mode dark
            # partition, ...) — the client's fault or the overlay's,
            # never a handler crash.
            return _error(422, f"{type(exc).__name__}: {exc}")
        self.served_by_endpoint[request.path] += 1
        return response

    async def _run(self, fn: Callable, *args):
        """Run one engine operation inline, outside any open stream's window."""
        async with self._engine_lock:
            return fn(*args)

    # -- introspection endpoints ---------------------------------------------------

    async def handle_healthz(self, request: Request) -> Response:
        engine = self.engine
        return Response(
            200,
            {
                "status": "ok",
                "peers": engine.n_peers,
                "partitions": engine.network.n_partitions,
                "fault_mode": engine.fault_mode,
                "uptime_seconds": round(
                    time.monotonic() - self.started_at, 3
                ),
            },
        )

    async def handle_stats(self, request: Request) -> Response:
        stats = self.engine.stats
        return Response(
            200,
            {
                "engine": {
                    "queries": stats.queries,
                    "messages": stats.messages,
                    "payload_bytes": stats.payload_bytes,
                    "by_type": dict(stats.by_type),
                    "by_phase": dict(stats.by_phase),
                },
                "admission": self.admission.snapshot(),
                "served_by_endpoint": dict(self.served_by_endpoint),
                "strategy_tally": dict(self.strategy_tally),
                "store_version": self.engine.store_version,
                "memos": self.engine.memo_stats(),
                "verifier": self.engine.verifier_stats(),
            },
        )

    # -- mutation endpoints ---------------------------------------------------------

    async def handle_insert(self, request: Request) -> Response:
        return await self._mutate(request, self.engine.insert)

    async def handle_delete(self, request: Request) -> Response:
        return await self._mutate(request, self.engine.delete)

    async def _mutate(self, request: Request, op: Callable) -> Response:
        """Apply one write batch through the engine's explicit write path.

        Mutations run inline under the engine lock like queries, so a
        write is never interleaved with a running query: every response
        either predates the write entirely or sees its full effect —
        including the memo/statistics delta maintenance the engine does
        inside ``op``.
        """
        triples = _parse_triples(request.json())

        def write():
            # One engine call, so the report read is this write's own.
            op(triples)
            return self.engine.last_write()

        report = await self._run(write)
        return Response(
            200,
            {
                "applied": report.applied,
                "requested": len(triples),
                "store_version": self.engine.store_version,
                "affected_partitions": report.affected_partitions,
                "invalidated": report.invalidated,
            },
        )

    # -- query endpoints -----------------------------------------------------------

    async def handle_exact(self, request: Request) -> Response:
        body = request.json()
        attribute = _field_str(body, "attribute")
        value = body.get("value")
        if not isinstance(value, (str, int, float)) or isinstance(value, bool):
            raise BadRequest("'value' must be a string or a number")
        ticket, rejection = self._admit(POINT_QUERY_PREDICTED_MESSAGES)
        if rejection is not None:
            return rejection
        started = time.perf_counter()
        try:
            matches = await self._run(self.engine.select, attribute, value)
            return self._query_response(
                {"matches": [_match_dict(m) for m in matches]}
            )
        finally:
            ticket.finish(time.perf_counter() - started)

    async def handle_similar(self, request: Request) -> Response:
        body = request.json()
        search = _field_str(body, "search")
        attribute = _field_str(body, "attribute")
        d = _field_int(body, "d", minimum=0)
        strategy = _parse_strategy(body)
        ticket, rejection = self._admit(
            self._predict_messages(search, attribute, d, strategy)
        )
        if rejection is not None:
            return rejection
        started = time.perf_counter()
        try:
            result = await self._run(
                self.engine.similar, search, attribute, d, strategy
            )
            self._tally(strategy)
            return self._query_response(
                {
                    "matches": [_match_dict(m) for m in result.matches],
                    "diagnostics": {
                        "grams_looked_up": result.grams_looked_up,
                        "candidates_verified": result.candidates_verified,
                    },
                }
            )
        finally:
            ticket.finish(time.perf_counter() - started)

    async def handle_top_n(self, request: Request) -> Response:
        params = self._top_n_params(request)
        ticket, rejection = self._admit(params["predicted"])
        if rejection is not None:
            return rejection
        started = time.perf_counter()
        engine = self.engine

        def run_top_n():
            with engine.recorded():
                return top_n_string_nn(
                    engine.ctx,
                    params["attribute"],
                    params["search"],
                    params["n"],
                    max_distance=params["max_distance"],
                    initiator_id=params["initiator"],
                    strategy=params["strategy"],
                )

        try:
            result = await self._run(run_top_n)
            self._tally(params["strategy"])
            return self._query_response(
                {
                    "matches": [_match_dict(m) for m in result.matches],
                    "rounds": result.rounds,
                }
            )
        finally:
            ticket.finish(time.perf_counter() - started)

    async def handle_top_n_stream(self, request: Request) -> Response:
        """Chunked NDJSON top-N: one line per match, in final rank order.

        Matches stream out as deepening rounds complete; the terminal
        line carries ``done`` plus the whole operation's cost (and the
        completeness record when the network is degraded).  The
        admission ticket is held until the stream ends, so an open
        stream counts against ``max_inflight``.
        """
        params = self._top_n_params(request)
        ticket, rejection = self._admit(params["predicted"])
        if rejection is not None:
            return rejection
        self._tally(params["strategy"])
        stream = self._stream_top_n(params, ticket)
        # Step the generator into its ``try`` before anyone can close it:
        # an async generator closed before its first step never runs its
        # ``finally``, and a client gone before the first chunk would
        # hold its admission slot for good.
        await stream.__anext__()
        return Response(
            200,
            headers={"Content-Type": "application/x-ndjson"},
            stream=stream,
        )

    async def _stream_top_n(
        self, params: dict, ticket: Ticket
    ) -> AsyncIterator[bytes]:
        engine = self.engine
        started = time.perf_counter()
        try:
            yield b""  # the handler's priming step; never sent
            # The one engine window that spans awaits: each ``yield``
            # hands the loop to the consumer, and the lock keeps every
            # other engine call out until the last round is accounted.
            async with self._engine_lock:
                best: dict[str, object] = {}
                emitted = 0
                rounds = 0
                with engine.recorded():
                    for d in range(params["max_distance"] + 1):
                        rounds += 1
                        probe = similar(
                            engine.ctx,
                            params["search"],
                            params["attribute"],
                            d,
                            params["initiator"],
                            strategy=params["strategy"],
                        )
                        fresh = []
                        for match in probe.matches:
                            previous = best.get(match.oid)
                            if (
                                previous is None
                                or match.distance < previous.distance
                            ):
                                if previous is None:
                                    fresh.append(match)
                                best[match.oid] = match
                        fresh.sort(key=lambda m: (m.distance, m.oid))
                        for match in fresh:
                            if emitted >= params["n"]:
                                break
                            emitted += 1
                            yield _ndjson({"match": _match_dict(match)})
                        if len(best) >= params["n"]:
                            break
                cost = engine.last_cost()
            summary = {
                "done": True,
                "count": emitted,
                "rounds": rounds,
                "cost": _cost_dict(cost),
            }
            completeness = _completeness_dict(cost)
            if completeness is not None:
                summary["completeness"] = completeness
                summary["partial"] = bool(cost.completeness.is_partial)
            yield _ndjson(summary)
        finally:
            ticket.finish(time.perf_counter() - started)

    async def handle_vql(self, request: Request) -> Response:
        body = request.json()
        text = _field_str(body, "text")
        initiator = body.get("initiator")
        if initiator is not None and not isinstance(initiator, int):
            raise BadRequest("'initiator' must be an integer peer id")
        ticket, rejection = self._admit(POINT_QUERY_PREDICTED_MESSAGES)
        if rejection is not None:
            return rejection
        started = time.perf_counter()
        try:
            result = await self._run(self.engine.query, text, initiator)
            return self._query_response(
                {"rows": [dict(row) for row in result.rows]},
                cost=result.cost,
            )
        finally:
            ticket.finish(time.perf_counter() - started)

    # -- shared plumbing -----------------------------------------------------------

    def _top_n_params(self, request: Request) -> dict:
        body = request.json()
        attribute = _field_str(body, "attribute")
        search = _field_str(body, "search")
        n = _field_int(body, "n", minimum=1)
        max_distance = _field_int(
            body,
            "max_distance",
            minimum=0,
            default=self.config.default_top_n_max_distance,
        )
        if max_distance >= MAX_ROUNDS:
            raise BadRequest(f"'max_distance' must be < {MAX_ROUNDS}")
        initiator = body.get("initiator")
        if initiator is not None and not isinstance(initiator, int):
            raise BadRequest("'initiator' must be an integer peer id")
        strategy = _parse_strategy(body)
        return {
            "attribute": attribute,
            "search": search,
            "n": n,
            "max_distance": max_distance,
            "initiator": initiator,
            "strategy": strategy,
            # Deepening usually stops in the first rounds; predict the
            # d=1 probe as the request's admission weight, or round 0
            # when that is the only round the request may run.
            "predicted": self._predict_messages(
                search, attribute, min(1, max_distance), strategy
            ),
        }

    def _predict_messages(
        self,
        search: str,
        attribute: str,
        d: int,
        strategy: SimilarityStrategy | None,
    ) -> float:
        """Admission weight of one similarity-shaped request.

        The fixed strategy's prediction when one was requested; the
        cheapest candidate otherwise (adaptive mode will pick it).
        """
        predictions = self.engine.predict_similar(search, attribute, d)
        if strategy is not None and strategy.is_physical:
            prediction = predictions.get(strategy.value)
            if prediction is not None:
                return max(1.0, prediction.messages)
        return max(
            1.0, min(p.messages for p in predictions.values())
        )

    def _admit(
        self, predicted_messages: float
    ) -> tuple[Ticket | None, Response | None]:
        decision = self.admission.admit(predicted_messages)
        if not decision.admitted:
            return None, _rejection(decision)
        return decision.ticket, None

    def _tally(self, strategy: SimilarityStrategy | None) -> None:
        resolved = strategy or self.engine.ctx.strategy
        self.strategy_tally[
            resolved.value if resolved is not None else "default"
        ] += 1

    def _query_response(
        self, payload: dict, cost=None
    ) -> Response:
        """Attach cost + completeness; degraded partial answers are 206."""
        cost = cost if cost is not None else self.engine.last_cost()
        payload["cost"] = _cost_dict(cost)
        if cost.decisions:
            payload["decisions"] = [_decision_dict(d) for d in cost.decisions]
        status = 200
        completeness = _completeness_dict(cost)
        if completeness is not None:
            payload["completeness"] = completeness
            if cost.completeness.is_partial:
                payload["partial"] = True
                status = 206
        return Response(status, payload)


# -- rendering helpers ---------------------------------------------------------


def _error(status: int, message: str) -> Response:
    return Response(status, {"error": message})


def _rejection(decision) -> Response:
    retry_after = decision.retry_after
    return Response(
        429,
        {
            "error": "overloaded",
            "reason": decision.reason,
            "retry_after": retry_after,
        },
        headers={"Retry-After": str(retry_after)},
    )


def _ndjson(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode()


def _match_dict(match) -> dict:
    return {
        "oid": match.oid,
        "matched": match.matched,
        "distance": match.distance,
        "object": {t.attribute: t.value for t in match.triples},
    }


def _cost_dict(cost) -> dict:
    out = {
        "messages": cost.messages,
        "payload_bytes": cost.payload_bytes,
        "by_phase": dict(cost.by_phase),
    }
    verifier = getattr(cost, "verifier", None)
    if verifier is not None:
        out["verifier"] = dict(verifier)
    return out


def _decision_dict(decision) -> dict:
    return {
        "search": decision.search,
        "attribute": decision.attribute,
        "d": decision.d,
        "chosen": decision.chosen.value,
        "predicted_messages": round(decision.predicted.messages, 1),
        "actual_messages": decision.actual_messages,
    }


def _completeness_dict(cost) -> dict | None:
    completeness = cost.completeness
    if completeness is None:
        return None
    return {
        "fraction": round(completeness.fraction, 6),
        "dark_partitions": list(completeness.dark_partitions),
        "dropped_candidates": completeness.dropped_candidates,
        "retries": completeness.retries,
        "failovers": completeness.failovers,
        "timeouts": completeness.timeouts,
    }


# -- request field parsing -----------------------------------------------------


def _field_str(body: dict, name: str) -> str:
    value = body.get(name)
    if not isinstance(value, str) or not value:
        raise BadRequest(f"'{name}' must be a non-empty string")
    return value


def _field_int(
    body: dict, name: str, minimum: int, default: int | None = None
) -> int:
    value = body.get(name, default)
    if value is None:
        raise BadRequest(f"'{name}' is required")
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"'{name}' must be an integer")
    if value < minimum:
        raise BadRequest(f"'{name}' must be >= {minimum}")
    return value


def _parse_triples(body: dict) -> list[Triple]:
    raw = body.get("triples")
    if not isinstance(raw, list) or not raw:
        raise BadRequest("'triples' must be a non-empty list")
    triples: list[Triple] = []
    for item in raw:
        if not isinstance(item, dict):
            raise BadRequest("each triple must be a JSON object")
        oid = item.get("oid")
        attribute = item.get("attribute")
        value = item.get("value")
        if not isinstance(oid, str) or not oid:
            raise BadRequest("triple 'oid' must be a non-empty string")
        if not isinstance(attribute, str) or not attribute:
            raise BadRequest("triple 'attribute' must be a non-empty string")
        if not isinstance(value, (str, int, float)) or isinstance(value, bool):
            raise BadRequest("triple 'value' must be a string or a number")
        triples.append(Triple(oid, attribute, value))
    return triples


def _parse_strategy(body: dict) -> SimilarityStrategy | None:
    name = body.get("strategy")
    if name is None:
        return None
    if not isinstance(name, str):
        raise BadRequest("'strategy' must be a string")
    try:
        return SimilarityStrategy.from_name(name)
    except ReproError as exc:
        raise BadRequest(str(exc)) from exc
