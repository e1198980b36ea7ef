"""Service layer: the query engine behind an asyncio HTTP boundary.

The simulator's :class:`~repro.engine.QueryEngine` is a synchronous,
single-process object; this package puts a real service boundary in
front of it — the "millions of users" north-star needs trackable
QPS/latency numbers, and those need an actual server to measure.

* :mod:`repro.serve.app` — :class:`QueryService`, the framework-free
  application object: routes, JSON payloads, per-query cost accounting,
  admission control, degraded-mode partial results.  It is directly
  awaitable (``await service.handle(request)``), so the tests can drive
  it in-process with zero socket overhead.
* :mod:`repro.serve.admission` — bounded in-flight admission with
  cost-model-predicted overload rejection (429 + ``Retry-After``).
* :mod:`repro.serve.http` — the stdlib asyncio HTTP/1.1 glue: one
  ``asyncio.start_server`` loop parsing requests into the application
  object and streaming chunked NDJSON responses back out.
* :mod:`repro.serve.client` — a minimal asyncio HTTP client (the
  benchmark's load generator drives the server through it; no
  third-party deps).

``python -m repro.serve`` boots a server on a generated dataset;
``python3 -m perf.run --workload serve_http`` is the load benchmark that
drives one over loopback.
"""
