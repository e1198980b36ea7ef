"""Layer tracing from outside: wrap declared callables, restore them after.

:class:`Tracer` takes the boundary table of :mod:`perf.layers`, resolves
each ``"module:qualified.name"`` target, and — only between
:meth:`Tracer.install` and :meth:`Tracer.uninstall` — replaces it with a
timing wrapper.  Module-level functions are also rebound in every other
``repro.*`` module that imported them *by value* (``from m import f``,
under any alias): patching the defining module alone would miss every
such caller.  A target that no longer resolves is kept as
``boundary_missing`` with zero calls; it is never an error, because later
changes may rename these functions but may not edit this directory.

Each wrapper measures one span.  A span's *self time* is its duration
minus the part its child spans cover, so layer self times add up to the
root spans' durations exactly.  Spans of recorded boundaries (and every
root span) are kept in memory as records
``(op_id, span_id, parent_span_id, boundary, start_ns, end_ns, thread, tag,
child_ns)``;
hot leaf boundaries only aggregate ``(calls, self_ns)``.

The current span is tracked on a per-thread stack for synchronous code
and in a :class:`~contextvars.ContextVar` for coroutine boundaries, whose
awaits interleave on one thread.  A synchronous boundary called straight
from a traced coroutine therefore still finds its parent.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter_ns

#: Package whose modules are scanned for by-value imports.
PACKAGE = "repro"

# Frame layout: [child_ns, in_scope, span_id, op_id]
_CHILD, _SCOPE, _SPAN, _OP = range(4)

# Aggregate cell layout: [calls, self_ns, calls_inside_a_scope]
CALLS, SELF_NS, SCOPED = range(3)


@dataclass
class Boundary:
    """One wrapped callable and everywhere it is bound."""

    index: int
    layer: str
    target: str
    record: bool
    scope: bool
    hook: Callable | None
    #: ``(owner, attribute, original, replacement)`` per patched binding.
    sites: list[tuple[object, str, object, object]] = field(default_factory=list)

    @property
    def missing(self) -> bool:
        return not self.sites

    @property
    def name(self) -> str:
        return self.target.partition(":")[2]


@dataclass
class Snapshot:
    """Aggregates at one instant (subtract two to get a window)."""

    at_ns: int
    cells: list[list[int]]
    counters: dict[str, float]


def import_all_submodules(package: str = PACKAGE) -> None:
    """Load every submodule now, so by-value imports can all be found."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        if info.name.rpartition(".")[2] == "__main__":
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue  # an optional dependency is absent; nothing to patch there


class Tracer:
    """Wrap the table's callables; aggregate self time per boundary."""

    def __init__(self, table: dict[str, tuple], recorded_layers=(), scopes=(), hooks=None):
        hooks = hooks or {}
        self.boundaries: list[Boundary] = []
        for layer, targets in table.items():
            for target in targets:
                self.boundaries.append(
                    Boundary(
                        index=len(self.boundaries),
                        layer=layer,
                        target=target,
                        record=layer in recorded_layers or target in scopes,
                        scope=target in scopes,
                        hook=hooks.get(target),
                    )
                )
        #: Operation id stamped on root spans; the driver sets it per op.
        self.op_id = -1
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.installed = False
        self._tls = threading.local()
        self._states: list[tuple] = []
        self._lock = threading.Lock()
        self._task_frame: contextvars.ContextVar = contextvars.ContextVar(
            "perf_task_frame", default=None
        )
        self._span_ids = itertools.count(1)
        import_all_submodules()
        for boundary in self.boundaries:
            self._resolve(boundary)

    # -- resolution -----------------------------------------------------------

    def _resolve(self, boundary: Boundary) -> None:
        module_name, __, qualname = boundary.target.partition(":")
        try:
            owner: object = importlib.import_module(module_name)
            *path, attribute = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if inspect.isclass(owner):
                # Patch the class that defines the attribute, so restoring
                # it is a plain ``setattr`` back.
                owner = next(c for c in owner.__mro__ if attribute in vars(c))
            original = vars(owner)[attribute]
        except (ImportError, AttributeError, KeyError, StopIteration):
            return
        plain = original
        rewrap = None
        if isinstance(original, (classmethod, staticmethod)):
            plain, rewrap = original.__func__, type(original)
        if not callable(plain):
            return
        wrapper = self._wrap(boundary, plain)
        boundary.sites.append(
            (owner, attribute, original, rewrap(wrapper) if rewrap else wrapper)
        )
        if inspect.ismodule(owner):
            for name, module in list(sys.modules.items()):
                if module is owner or module is None:
                    continue
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        boundary.sites.append((module, alias, original, wrapper))

    # -- install / restore ------------------------------------------------------

    def install(self) -> None:
        if self.installed:
            return
        for boundary in self.boundaries:
            for owner, attribute, __, replacement in boundary.sites:
                setattr(owner, attribute, replacement)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for boundary in self.boundaries:
            for owner, attribute, original, __ in boundary.sites:
                setattr(owner, attribute, original)
        self.installed = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def unrestored(self) -> list[str]:
        """Bindings that are not the original object (empty when clean)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attribute}"
            for boundary in self.boundaries
            for owner, attribute, original, __ in boundary.sites
            if vars(owner)[attribute] is not original
        ]

    # -- wrappers ---------------------------------------------------------------

    def _thread_state(self) -> tuple:
        state = (
            [],
            [[0, 0, 0] for __ in self.boundaries],
            threading.get_ident(),
        )
        with self._lock:
            self._states.append(state)
        self._tls.state = state
        return state

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        tracer = self
        tls = self._tls
        task_frame = self._task_frame
        spans = self.spans
        counters = self.counters
        next_span = self._span_ids.__next__
        clock = perf_counter_ns
        index, record = boundary.index, boundary.record
        scope, hook = boundary.scope, boundary.hook
        # A generator boundary is drained inside its span: otherwise its
        # work would be timed in whichever caller happens to iterate it.
        drain = inspect.isgeneratorfunction(fn)

        def close(frame, parent, cells, start, end, tid, tag) -> None:
            duration = end - start
            cell = cells[index]
            cell[CALLS] += 1
            cell[SELF_NS] += duration - frame[_CHILD]
            if frame[_SCOPE]:
                cell[SCOPED] += 1
            if parent is None:
                spans.append(
                    (frame[_OP], frame[_SPAN], -1, index, start, end, tid, tag,
                     frame[_CHILD])
                )
                return
            parent[_CHILD] += duration
            if record:
                spans.append(
                    (frame[_OP], frame[_SPAN], parent[_SPAN], index, start, end,
                     tid, tag, frame[_CHILD])
                )

        def open_frame(parent) -> list:
            if parent is None:
                return [0, scope, next_span(), tracer.op_id]
            return [
                0,
                scope or parent[_SCOPE],
                next_span() if record else parent[_SPAN],
                parent[_OP],
            ]

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                try:
                    __, cells, tid = tls.state
                except AttributeError:
                    __, cells, tid = tracer._thread_state()
                parent = task_frame.get()
                frame = open_frame(parent)
                token = task_frame.set(frame)
                result, ok = None, False
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                finally:
                    end = clock()
                    task_frame.reset(token)
                    tag = hook(counters, args, kwargs, result) if ok and hook else None
                    close(frame, parent, cells, start, end, tid, tag)
                return result

            return async_wrapper

        # The synchronous wrapper is the hot one (thousands of calls per
        # operation), so it inlines ``open_frame``/``close``.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack, cells, tid = tls.state
            except AttributeError:
                stack, cells, tid = tracer._thread_state()
            parent = stack[-1] if stack else task_frame.get()
            if parent is None:
                frame = [0, scope, next_span(), tracer.op_id]
            elif record:
                frame = [0, scope or parent[_SCOPE], next_span(), parent[_OP]]
            else:
                frame = [0, scope or parent[_SCOPE], parent[_SPAN], parent[_OP]]
            stack.append(frame)
            result = None
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                cell = cells[index]
                cell[CALLS] += 1
                cell[SELF_NS] += duration - frame[_CHILD]
                if frame[_SCOPE]:
                    cell[SCOPED] += 1
                tag = hook(counters, args, kwargs, result) if ok and hook else None
                if parent is None:
                    spans.append(
                        (frame[_OP], frame[_SPAN], -1, index, start, end, tid,
                         tag, frame[_CHILD])
                    )
                else:
                    parent[_CHILD] += duration
                    if record:
                        spans.append(
                            (frame[_OP], frame[_SPAN], parent[_SPAN], index,
                             start, end, tid, tag, frame[_CHILD])
                        )
            return iter(result) if drain else result

        return wrapper

    # -- reading ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        cells = [[0, 0, 0] for __ in self.boundaries]
        with self._lock:
            states = list(self._states)
        for __, thread_cells, __ in states:
            for total, cell in zip(cells, thread_cells):
                for slot in (CALLS, SELF_NS, SCOPED):
                    total[slot] += cell[slot]
        return Snapshot(
            at_ns=perf_counter_ns(),
            cells=cells,
            counters=dict(self.counters),
        )

    def table(self) -> list[dict]:
        """The boundaries as plain records (what a span dump carries)."""
        return [
            {
                "layer": b.layer,
                "name": b.name,
                "target": b.target,
                "missing": b.missing,
                "bindings": len(b.sites),
            }
            for b in self.boundaries
        ]

    def layer_totals(self, window: Snapshot) -> dict[str, dict[str, float]]:
        return layer_totals(self.table(), window.cells)

    def report(self, window: Snapshot) -> list[dict]:
        return boundary_rows(self.table(), window.cells)

    def boundary_cell(self, window: Snapshot, name: str) -> list[int]:
        """The aggregate cell of the boundary whose qualified name is ``name``."""
        for boundary, cell in zip(self.boundaries, window.cells):
            if boundary.name == name:
                return cell
        return [0, 0, 0]

    def dump(self, path, **extra) -> None:
        """Write the span records (kept in memory until now) and the table."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "record": "op_id, span_id, parent_span_id, boundary, start_ns, "
                    "end_ns, thread, tag, child_ns",
                    "boundaries": self.table(),
                    "spans": self.spans,
                    "unrestored": self.unrestored(),
                    **extra,
                },
                handle,
            )


def layer_totals(table: list[dict], cells: list[list[int]]) -> dict[str, dict[str, float]]:
    """``layer -> {calls, self_ns, missing}`` from a table and its cells."""
    totals: dict[str, dict[str, float]] = {}
    for boundary, cell in zip(table, cells):
        entry = totals.setdefault(
            boundary["layer"], {"calls": 0, "self_ns": 0, "missing": 0}
        )
        entry["calls"] += cell[CALLS]
        entry["self_ns"] += cell[SELF_NS]
        entry["missing"] += boundary["missing"]
    return totals


def boundary_rows(table: list[dict], cells: list[list[int]]) -> list[dict]:
    """Per-boundary rows for humans; unresolved ones say ``boundary_missing``."""
    return [
        {
            "layer": boundary["layer"],
            "boundary": boundary["target"],
            "status": "boundary_missing" if boundary["missing"] else "ok",
            "calls": cell[CALLS],
            "self_ms": cell[SELF_NS] / 1e6,
        }
        for boundary, cell in zip(table, cells)
    ]
