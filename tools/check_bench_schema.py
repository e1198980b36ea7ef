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
from typing import NamedTuple

NUMBER = (int, float)


class SchemaProblem(Exception):
    """One validation failure, with a dotted path to the offender."""


class NonEmpty(NamedTuple):
    """``shape``, and at least one item or key."""

    shape: object


# A shape is a type or a tuple of types (the value's JSON type; a bool
# passes only where ``bool`` is named), a dict of required keys and their
# shapes (``{str: shape}``: any keys, every value of ``shape``), a
# one-element list ``[shape]`` (a list of such items), or ``NonEmpty``.

FIG1_V7 = {
    "scale": {
        "words": int, "titles": int, "repetitions": int, "seed": int,
        "full": bool, "adaptive": bool, "peer_counts": [int],
    },
    "datasets": NonEmpty({str: {
        "sweep_seconds": NUMBER,
        "cells": NonEmpty([{
            "peers": int,
            "wall_seconds": NUMBER, "build_seconds": NUMBER,
            "total_entries": int, "stored_payload_bytes": int,
            "strategies": {str: {"messages": int, "megabytes": NUMBER}},
        }]),
    }}),
}

FAULT_V1 = {
    "scale": {
        "words": int, "peers": int, "replication": int, "queries": int,
        "churn_inserts": int, "seed": int,
        "drop_probability": NUMBER, "fractions": list,
    },
    "cells": NonEmpty([{
        "fail_fraction": NUMBER,
        "failed_peers": int, "dark_partitions": int,
        "under_failure": dict, "repair": dict, "post_repair": dict,
        "consistent_after_repair": bool,
    }]),
    "elapsed_seconds": NUMBER,
}

_ARM = {
    "messages": int, "payload_bytes": int, "queries": int, "memo_hits": int,
    "memo_misses": int, "memo_invalidations": int, "memo_entries_end": int,
    "wall_seconds": NUMBER, "memo_hit_rate": NUMBER,
}

MUTATE_V1 = {
    "scale": {
        "words": int, "peers": int, "replication": int, "steps": int,
        "queries_per_step": int, "write_batch": int, "query_pool": int,
        "recovery_inserts": int, "seed": int, "recovery_fail_fraction": NUMBER,
    },
    "workload": {"ops": int, "queries": int, "writes": int},
    "arms": {"delta": _ARM, "drop": _ARM, "reference": _ARM},
    "staleness": {
        "queries_compared": int, "stale_answers_delta": int,
        "stale_answers_drop": int,
    },
    "retention": {
        "delta_hit_rate": NUMBER, "drop_hit_rate": NUMBER, "advantage": NUMBER,
    },
    "recovery": {
        "failed_peers": int, "recovered_peers": int,
        "divergent_partitions": int, "entries_copied": int,
        "repair_messages": int, "repair_payload_bytes": int,
        "memo_entries_before": int, "memo_entries_after": int,
        "wall_seconds": NUMBER,
    },
    "elapsed_seconds": NUMBER,
}

#: Declared schema tag -> shape.  Adding a schema version means adding
#: exactly one entry here (and a benchmarks/README.md section).
SHAPES = {
    "repro-bench-fig1/v7": FIG1_V7,
    "repro-bench-fault/v1": FAULT_V1,
    "repro-bench-mutate/v1": MUTATE_V1,
}


def check(value, shape, where: str = "$", label: str = "$") -> None:
    """Raise :class:`SchemaProblem` where ``value`` departs from
    ``shape``; ``where`` names ``value`` on the path to its items,
    ``label`` in a type error."""
    inner = shape.shape if isinstance(shape, NonEmpty) else shape
    kinds = {dict: dict, list: list}.get(type(inner), inner)
    named = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(value, kinds) or (
        isinstance(value, bool) and bool not in named
    ):
        raise SchemaProblem(
            f"{label}: expected {kinds}, got {type(value).__name__}"
        )
    if isinstance(shape, NonEmpty) and not value:
        raise SchemaProblem(f"{where}: empty")
    if isinstance(inner, list):
        for index, item in enumerate(value):
            check(item, inner[0], f"{where}[{index}]", f"{where}[{index}]")
    elif isinstance(inner, dict):
        wanted = dict.fromkeys(value, inner[str]) if str in inner else inner
        for key, item_shape in wanted.items():
            if key not in value:
                raise SchemaProblem(f"{where}: missing key '{key}'")
            path = key if where == "$" else f"{where}.{key}"
            check(value[key], item_shape, path, f"{where}.{key}")


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
    shape = SHAPES.get(schema)
    if shape is None:
        known = ", ".join(sorted(SHAPES))
        return [f"{path}: unknown schema {schema!r} (known: {known})"]
    try:
        check(data, shape)
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
