"""Intra-query fan-out: per-peer delegate work on a thread pool.

A broadcast or gram lookup fans the same query out to many peers, and
each contacted peer then does independent local work — scanning its
store, filtering postings, comparing strings.  :class:`FanOutExecutor`
runs those per-peer units concurrently while keeping the simulation's
measurement contract intact:

* **Deterministic results.**  Work is submitted in a *stable order*
  (callers order units by peer/partition id) and results are collected
  in submission order, so the merged outcome is independent of thread
  scheduling.
* **Deterministic charges.**  Units that charge messages run against a
  private scratch :class:`~repro.overlay.messages.MessageTracer` each;
  the scratches are merged into the real tracer in submission order
  (:meth:`MessageTracer.merge`), so counters, per-phase totals and the
  verbose log are byte-identical to the serial loop.
* **No RNG.**  Fanned-out units must not consume router RNG draws —
  routing, replica selection and anything else that draws stays on the
  caller's thread.  That is what keeps the parallel mode's measured
  series bit-identical to the serial reference path (property-tested).

The serial path remains the reference: every call site degrades to a
plain loop when no executor is installed.  On CPython the GIL limits
the speedup for
pure-Python scans; the mode exists so the execution *model* (what is
shared, what is per-worker, how charges merge) is in place and testable,
and it composes with the process-level sweep parallelism of
:class:`repro.bench.sweep.ParallelSweepRunner`, which is where
multi-core wall-clock wins come from.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

from repro.overlay.messages import MessageTracer

T = TypeVar("T")
U = TypeVar("U")

#: Fanning out fewer units than this runs inline: the pool's handoff
#: overhead exceeds any possible overlap.
MIN_FAN_OUT = 2


class FanOutExecutor:
    """A bounded thread pool with order-preserving collection.

    One executor is owned by a :class:`~repro.engine.QueryEngine` (never
    shared across engines: each benchmark cell — and each sweep worker
    process — gets its own, alongside its own seeded RNGs and
    :class:`~repro.similarity.verify.VerifierPool`).  Call
    :meth:`shutdown` (or use the engine as a context manager) when done;
    idle threads are cheap but finite.
    """

    def __init__(self, max_workers: int):
        if max_workers < MIN_FAN_OUT:
            raise ValueError(
                f"fan-out needs at least {MIN_FAN_OUT} workers, got {max_workers}"
            )
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-fanout"
        )

    def map_ordered(self, fn: Callable[[T], U], items: Sequence[T]) -> list[U]:
        """``[fn(item) for item in items]``, computed concurrently.

        Results come back in ``items`` order regardless of completion
        order; the first exception any unit raises is re-raised here.
        ``fn`` must be pure per-peer work — no tracer charges (use
        :meth:`run_traced`), no RNG draws.
        """
        items = list(items)
        if len(items) < MIN_FAN_OUT:
            return [fn(item) for item in items]
        return list(self._pool.map(fn, items))

    def run_traced(
        self,
        tracer: MessageTracer,
        tasks: Sequence[Callable[[MessageTracer], U]],
    ) -> list[U]:
        """Run charging units concurrently, merging charges in task order.

        Each task receives a private scratch tracer (same ``record_log``
        setting as ``tracer``) and charges only to it; after all tasks
        finish, the scratches are folded into ``tracer`` in submission
        order, so the final counters and verbose log match the serial
        loop byte for byte.  A failing task raises after no merge — the
        real tracer is never left half-charged.
        """
        tasks = list(tasks)
        scratches = [
            MessageTracer(record_log=tracer.record_log) for __ in tasks
        ]
        if len(tasks) < MIN_FAN_OUT:
            results = [task(scratch) for task, scratch in zip(tasks, scratches)]
        else:
            futures = [
                self._pool.submit(task, scratch)
                for task, scratch in zip(tasks, scratches)
            ]
            results = [future.result() for future in futures]
        for scratch in scratches:
            tracer.merge(scratch)
        return results

    def shutdown(self) -> None:
        """Release the pool's threads (idempotent)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "FanOutExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
