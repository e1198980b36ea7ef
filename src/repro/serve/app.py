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
(one operation scope at a time; scopes refuse to nest) needs exclusive
access, so every engine call runs inline on the event-loop thread, one
at a time.  Each handler runs one engine operation and never awaits
while it runs, so no two operations interleave and the service needs
no lock.  A thread would buy no parallelism: the engine holds the
GIL while it computes, and handing each call to a worker thread cost
more in GIL hand-offs than it overlapped.  The loop is blocked for one
engine call at a time (about 0.4 ms at p50 and 2.7 ms at p99 on the
``serve_http`` mix), below CPython's 5 ms switch interval, which
already bounded the loop's wait while a threaded engine computed.
:class:`~repro.serve.admission.AdmissionController` bounds how many
admitted requests may wait for the loop.

Streaming top-N makes the same single engine call as ``/query/topn``
(:meth:`~repro.engine.QueryEngine.top_n_string`, the serial iterative
deepening) and frames its result as NDJSON: one line per match in rank
order, then a summary line with the operation's cost.  The call runs
before the response is returned, so an engine error is a 422 like on
every other endpoint, and a slow reader holds its admission slot but
never the engine.  The price is latency to the first line: it leaves
only after the last deepening round has run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import AsyncIterator, Awaitable, Callable
from dataclasses import dataclass, field

from repro.core.config import SimilarityStrategy
from repro.core.errors import ReproError
from repro.engine import MAX_ROUNDS, TOP_N_MAX_DISTANCE, QueryEngine
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
    """Tunables of one :class:`QueryService`: ``max_inflight`` /
    ``cost_budget`` parameterize the
    :class:`~repro.serve.admission.AdmissionController`.
    """

    max_inflight: int = 8
    cost_budget: float = 0.0


Handler = Callable[[Request], Awaitable[Response]]


class QueryService:
    """The engine behind a service boundary.

    Server entry points close the service on shutdown, or use it as a
    context manager::

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
        """Mark the service closed; idempotent.

        The engine holds no threads or other resources, so nothing is
        released and the engine stays usable.
        """
        self._closed = True

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

        Mutations run inline like queries, so a write is never
        interleaved with a running query: every response either predates
        the write entirely or sees its full effect — including the
        memo/statistics delta maintenance the engine does inside ``op``.
        """
        triples = _parse_triples(request.json())
        op(triples)
        report = self.engine.last_write()
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
            matches = self.engine.select(attribute, value)
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
            result = self.engine.similar(search, attribute, d, strategy)
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
        try:
            result = self._top_n(params)
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

        The terminal line carries ``done`` plus the operation's cost (and
        the completeness record when the network is degraded).  The
        admission ticket is held until the stream ends, so an open
        stream counts against ``max_inflight``.
        """
        params = self._top_n_params(request)
        ticket, rejection = self._admit(params["predicted"])
        if rejection is not None:
            return rejection
        started = time.perf_counter()
        try:
            result = self._top_n(params)
        except BaseException:
            ticket.finish(time.perf_counter() - started)
            raise
        cost = self.engine.last_cost()
        summary = {
            "done": True,
            "count": len(result.matches),
            "rounds": result.rounds,
            "cost": _cost_dict(cost),
        }
        completeness = _completeness_dict(cost)
        if completeness is not None:
            summary["completeness"] = completeness
            summary["partial"] = bool(cost.completeness.is_partial)
        lines = [_ndjson({"match": _match_dict(m)}) for m in result.matches]
        lines.append(_ndjson(summary))
        stream = _held_stream(lines, ticket, started)
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

    async def handle_vql(self, request: Request) -> Response:
        body = request.json()
        text = _field_str(body, "text")
        initiator = _field_initiator(body, self.engine.n_peers)
        ticket, rejection = self._admit(POINT_QUERY_PREDICTED_MESSAGES)
        if rejection is not None:
            return rejection
        started = time.perf_counter()
        try:
            result = self.engine.query(text, initiator)
            return self._query_response(
                {"rows": [dict(row) for row in result.rows]},
                cost=result.cost,
            )
        finally:
            ticket.finish(time.perf_counter() - started)

    # -- shared plumbing -----------------------------------------------------------

    def _top_n(self, params: dict):
        """The one engine call behind both top-N endpoints."""
        result = self.engine.top_n_string(
            params["attribute"],
            params["search"],
            params["n"],
            params["max_distance"],
            params["initiator"],
            params["strategy"],
        )
        self._tally(params["strategy"])
        return result

    def _top_n_params(self, request: Request) -> dict:
        body = request.json()
        attribute = _field_str(body, "attribute")
        search = _field_str(body, "search")
        n = _field_int(body, "n", minimum=1)
        max_distance = _field_int(
            body,
            "max_distance",
            minimum=0,
            default=TOP_N_MAX_DISTANCE,
        )
        if max_distance >= MAX_ROUNDS:
            raise BadRequest(f"'max_distance' must be < {MAX_ROUNDS}")
        initiator = _field_initiator(body, self.engine.n_peers)
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


async def _held_stream(
    lines: list[bytes], ticket: Ticket, started: float
) -> AsyncIterator[bytes]:
    """Yield ``lines``, holding ``ticket`` until the stream ends."""
    try:
        yield b""  # the handler's priming step; never sent
        for line in lines:
            yield line
    finally:
        ticket.finish(time.perf_counter() - started)


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


def _field_initiator(body: dict, n_peers: int) -> int | None:
    """The optional ``initiator`` peer id; ``None`` when absent."""
    value = body.get("initiator")
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < n_peers
    ):
        raise BadRequest(f"'initiator' must be a peer id in [0, {n_peers})")
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
