#!/usr/bin/env python3
"""Bench-baseline drift check (stdlib only; the CI docs job runs it).

Validates every committed ``benchmarks/BENCH_*.json`` against the
structure its declared ``schema`` tag promises, so a malformed
regenerated baseline fails in the fast docs job instead of surfacing at
bench-tier runtime.  The checks are structural — required keys and
value types — not numerical; regenerating a baseline with different
measurements stays green, dropping or renaming a schema field does not.

Usage::

    python tools/check_bench_schema.py              # benchmarks/BENCH_*.json
    python tools/check_bench_schema.py out/BENCH_mutate.json [...]

Exit status 0 when every file validates, 1 otherwise (each problem is
reported on stderr as ``file: message``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

NUMBER = (int, float)


class SchemaProblem(Exception):
    """One validation failure, with a dotted path to the offender."""


def _need(obj: dict, key: str, kinds, where: str):
    if key not in obj:
        raise SchemaProblem(f"{where}: missing key '{key}'")
    value = obj[key]
    if isinstance(value, bool) and bool not in (
        kinds if isinstance(kinds, tuple) else (kinds,)
    ):
        raise SchemaProblem(f"{where}.{key}: expected {kinds}, got bool")
    if not isinstance(value, kinds):
        raise SchemaProblem(
            f"{where}.{key}: expected {kinds}, got {type(value).__name__}"
        )
    return value


def _need_keys(obj: dict, keys, kinds, where: str):
    for key in keys:
        _need(obj, key, kinds, where)


# -- per-schema validators -----------------------------------------------------


def check_fig1_v5(data: dict) -> None:
    scale = _need(data, "scale", dict, "$")
    _need_keys(
        scale,
        ("words", "titles", "repetitions", "seed", "jobs", "fanout"),
        int,
        "scale",
    )
    _need(scale, "full", bool, "scale")
    _need(scale, "adaptive", bool, "scale")
    peer_counts = _need(scale, "peer_counts", list, "scale")
    if not all(isinstance(n, int) for n in peer_counts):
        raise SchemaProblem("scale.peer_counts: expected a list of ints")
    datasets = _need(data, "datasets", dict, "$")
    if not datasets:
        raise SchemaProblem("datasets: empty")
    for name, dataset in datasets.items():
        where = f"datasets.{name}"
        _need(dataset, "sweep_seconds", NUMBER, where)
        cells = _need(dataset, "cells", list, where)
        if not cells:
            raise SchemaProblem(f"{where}.cells: empty")
        for index, cell in enumerate(cells):
            cell_where = f"{where}.cells[{index}]"
            _need(cell, "peers", int, cell_where)
            _need_keys(
                cell, ("wall_seconds", "build_seconds"), NUMBER, cell_where
            )
            _need_keys(
                cell, ("total_entries", "stored_payload_bytes"), int, cell_where
            )
            strategies = _need(cell, "strategies", dict, cell_where)
            for strategy, series in strategies.items():
                series_where = f"{cell_where}.strategies.{strategy}"
                _need(series, "messages", int, series_where)
                _need(series, "megabytes", NUMBER, series_where)


def check_fault_v1(data: dict) -> None:
    scale = _need(data, "scale", dict, "$")
    _need_keys(
        scale,
        ("words", "peers", "replication", "queries", "churn_inserts", "seed"),
        int,
        "scale",
    )
    _need(scale, "drop_probability", NUMBER, "scale")
    _need(scale, "fractions", list, "scale")
    cells = _need(data, "cells", list, "$")
    if not cells:
        raise SchemaProblem("cells: empty")
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        _need(cell, "fail_fraction", NUMBER, where)
        _need_keys(cell, ("failed_peers", "dark_partitions"), int, where)
        _need_keys(cell, ("under_failure", "repair", "post_repair"), dict, where)
        _need(cell, "consistent_after_repair", bool, where)
    _need(data, "elapsed_seconds", NUMBER, "$")


def check_mutate_v1(data: dict) -> None:
    scale = _need(data, "scale", dict, "$")
    _need_keys(
        scale,
        (
            "words", "peers", "replication", "steps", "queries_per_step",
            "write_batch", "query_pool", "recovery_inserts", "seed",
        ),
        int,
        "scale",
    )
    _need(scale, "recovery_fail_fraction", NUMBER, "scale")
    workload = _need(data, "workload", dict, "$")
    _need_keys(workload, ("ops", "queries", "writes"), int, "workload")
    arms = _need(data, "arms", dict, "$")
    for name in ("delta", "drop", "reference"):
        arm = _need(arms, name, dict, "arms")
        where = f"arms.{name}"
        _need_keys(
            arm,
            ("messages", "payload_bytes", "queries", "memo_hits",
             "memo_misses", "memo_invalidations", "memo_entries_end"),
            int,
            where,
        )
        _need_keys(arm, ("wall_seconds", "memo_hit_rate"), NUMBER, where)
    staleness = _need(data, "staleness", dict, "$")
    _need_keys(
        staleness,
        ("queries_compared", "stale_answers_delta", "stale_answers_drop"),
        int,
        "staleness",
    )
    retention = _need(data, "retention", dict, "$")
    _need_keys(
        retention,
        ("delta_hit_rate", "drop_hit_rate", "advantage"),
        NUMBER,
        "retention",
    )
    recovery = _need(data, "recovery", dict, "$")
    _need_keys(
        recovery,
        ("failed_peers", "recovered_peers", "divergent_partitions",
         "entries_copied", "repair_messages", "repair_payload_bytes",
         "memo_entries_before", "memo_entries_after"),
        int,
        "recovery",
    )
    _need(recovery, "wall_seconds", NUMBER, "recovery")
    _need(data, "elapsed_seconds", NUMBER, "$")


#: Declared schema tag -> validator.  Adding a schema version means
#: adding exactly one entry here (and a benchmarks/README.md section).
VALIDATORS = {
    "repro-bench-fig1/v5": check_fig1_v5,
    "repro-bench-fault/v1": check_fault_v1,
    "repro-bench-mutate/v1": check_mutate_v1,
}


def check_file(path: Path) -> list[str]:
    """All problems of one baseline file, as human-readable strings."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable JSON ({exc})"]
    if not isinstance(data, dict):
        return [f"{path}: top level must be a JSON object"]
    schema = data.get("schema")
    if not isinstance(schema, str):
        return [f"{path}: missing 'schema' tag"]
    validator = VALIDATORS.get(schema)
    if validator is None:
        known = ", ".join(sorted(VALIDATORS))
        return [f"{path}: unknown schema {schema!r} (known: {known})"]
    try:
        validator(data)
    except SchemaProblem as exc:
        return [f"{path}: [{schema}] {exc}"]
    return []


def main(argv: list[str]) -> int:
    if argv:
        paths = [Path(arg) for arg in argv]
    else:
        root = Path(__file__).resolve().parent.parent
        paths = sorted((root / "benchmarks").glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1
    problems: list[str] = []
    for path in paths:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"bench schemas OK ({len(paths)} files)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
