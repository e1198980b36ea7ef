"""The HTTP server child of ``serve_http``: ``python -m perf.serve_entry '<json>'``.

Same topology traced and untraced: ``build_service`` + ``ServiceServer``
on a loopback port, one process, one engine thread.  Two additions, both
outside ``src/``:

* a ``POST /perf/mark`` route (added to the service's public route table)
  that snapshots the tracer's aggregates under a label and reports the
  process's peak RSS — how the load generator brackets its phases;
* on SIGTERM the server stops and, when traced, dumps marks and span
  records to the file named in the spec before exiting.

The bound port is announced as one JSON line on standard output.
"""

from __future__ import annotations

import asyncio
import json
import resource
import signal
import sys
from time import perf_counter

from repro.serve.__main__ import build_service
from repro.serve.app import Request, Response
from repro.serve.http import ServiceServer

from perf.layers import make_tracer
from perf.paths import pin_to_cpu


async def serve(spec: dict) -> None:
    tracer = make_tracer() if spec["trace"] else None
    marks: dict[str, dict] = {}
    if tracer is not None:
        # Installed before the build so that ``QueryEngine.analyze`` leaves a
        # span; build time itself is reported from the untraced child.
        tracer.install()
    started = perf_counter()
    service = build_service(
        spec["peers"], spec["words"], spec["seed"], "adaptive",
        max_inflight=8, cost_budget=0.0,
    )
    build_s = perf_counter() - started

    async def handle_mark(request: Request) -> Response:
        label = request.json().get("label", "")
        if tracer is not None:
            snapshot = tracer.snapshot()
            marks[label] = {
                "at_ns": snapshot.at_ns,
                "cells": snapshot.cells,
                "counters": snapshot.counters,
            }
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Response(200, {"label": label, "rss_mb": rss, "build_s": build_s})

    service.routes[("POST", "/perf/mark")] = handle_mark
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    server = ServiceServer(service, "127.0.0.1", 0)
    try:
        await server.start()
        print(json.dumps({"port": server.port}), flush=True)
        await stop.wait()
    finally:
        await server.stop()
        service.close()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spec["dump"], marks=marks)


if __name__ == "__main__":
    pin_to_cpu(last=True)
    asyncio.run(serve(json.loads(sys.argv[1])))
