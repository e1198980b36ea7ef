"""Mixed read-write benchmark: delta memo maintenance vs wholesale drop.

The delta-maintenance arc routes every mutation through the engine's
explicit write path (:meth:`~repro.engine.QueryEngine.insert` /
:meth:`~repro.engine.QueryEngine.delete` / :meth:`~repro.engine.QueryEngine.recover`)
and invalidates only the memo entries the written index entries name.  This
harness quantifies what that buys on a seeded mixed workload:

* **memo retention** — the same op sequence runs on a ``delta`` engine
  and a ``drop`` baseline engine, which calls
  :meth:`~repro.engine.QueryEngine.clear_memos` right before every
  write (so the write finds empty memos and invalidates nothing); the
  headline number is the memo hit-rate each arm achieves.  Memos are
  cost-transparent (they replay recorded message charges), so the two
  arms' measured message series are bit-identical — the win is cached
  work, reported as hit rate and wall time.
* **query-visible staleness** — a third, memo-free reference arm
  (``memoize=False``) replays the identical ops; every query's match
  list must agree bit-for-bit with the delta and drop arms'.  Any
  disagreement is a stale answer escaping a memo, counted, and must be
  zero (the CLI exits 1 otherwise).
* **recovery** — after the workload, a fail → diverge → recover cycle on
  the delta engine measures anti-entropy wall time, entries copied, and
  repair traffic, plus how many memo entries survive a recovery that
  only repairs the partitions that actually diverged.

``python -m evaluation.mutate --json-dir benchmarks`` writes the
committed ``BENCH_mutate.json`` baseline (schema
``repro-bench-mutate/v1``; see ``benchmarks/README.md``).  Everything is
seeded — re-running at the same scale reproduces the file bit-for-bit
(modulo the wall-clock fields).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro.core.config import StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.engine import QueryEngine
from repro.storage.triple import Triple

#: Schema tag embedded in ``BENCH_mutate.json``.
MUTATE_SCHEMA = "repro-bench-mutate/v1"

#: Default workload scale (kept small: three arms build three networks).
DEFAULT_WORDS = 400
DEFAULT_PEERS = 64
DEFAULT_REPLICATION = 3
DEFAULT_STEPS = 8
DEFAULT_QUERIES_PER_STEP = 6
DEFAULT_WRITE_BATCH = 8
DEFAULT_QUERY_POOL = 12

#: Recovery-phase settings: fraction of peers failed (partitions stay
#: reachable) and triples inserted while they are down.
RECOVERY_FAIL_FRACTION = 0.25
RECOVERY_INSERTS = 32


def build_workload(
    corpus,
    steps: int,
    queries_per_step: int,
    write_batch: int,
    query_pool: int,
    seed: int,
) -> list[tuple]:
    """The seeded op list every arm replays.

    Each step runs ``queries_per_step`` similarity queries drawn (with
    repetition — that is what memos cache) from a fixed pool of stored
    strings, then one write: inserts on even steps, deletes of the
    previous step's inserts on odd steps.  Net data change over a full
    even/odd pair is zero, so the workload keeps hitting the same
    regions instead of drifting away from the query pool.
    """
    rng = random.Random(seed + 23)
    strings = sorted({str(t.value) for t in corpus})
    pool = [rng.choice(strings) for __ in range(query_pool)]
    ops: list[tuple] = []
    pending: list[Triple] = []
    for step in range(steps):
        for __ in range(queries_per_step):
            ops.append(("query", rng.choice(pool), rng.choice((1, 1, 2))))
        if step % 2 == 0:
            batch = [
                Triple(
                    f"mut:{step}:{i:03d}",
                    TEXT_ATTRIBUTE,
                    f"{rng.choice(pool)}x{step}{i}",
                )
                for i in range(write_batch)
            ]
            ops.append(("insert", tuple(batch)))
            pending = batch
        else:
            ops.append(("delete", tuple(pending)))
            pending = []
    return ops


def _run_arm(
    corpus,
    ops,
    config: StoreConfig,
    n_peers: int,
    arm: str,
) -> dict:
    """Replay ``ops`` on a fresh engine for ``arm`` (``"delta"``,
    ``"drop"`` or the memo-free ``"reference"``)."""
    engine = QueryEngine.build(
        n_peers=n_peers,
        triples=corpus,
        config=config,
        memoize=arm != "reference",
    )
    clear_before_write = arm == "drop"
    answers: list[tuple] = []
    started = time.perf_counter()
    for op in ops:
        if op[0] == "query":
            result = engine.similar(op[1], TEXT_ATTRIBUTE, op[2])
            answers.append(
                tuple(
                    sorted(
                        (m.oid, m.matched, m.distance) for m in result.matches
                    )
                )
            )
        else:
            if clear_before_write:
                engine.clear_memos()
            if op[0] == "insert":
                engine.insert(list(op[1]))
            else:
                engine.delete(list(op[1]))
    wall = time.perf_counter() - started
    memo_stats = engine.memo_stats()
    hits = sum(m["hits"] for m in memo_stats.values())
    misses = sum(m["misses"] for m in memo_stats.values())
    lookups = hits + misses
    arm = {
        "messages": engine.stats.messages,
        "payload_bytes": engine.stats.payload_bytes,
        "queries": engine.stats.queries,
        "wall_seconds": round(wall, 4),
        "memo_hits": hits,
        "memo_misses": misses,
        "memo_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        "memo_invalidations": sum(
            m["invalidations"] for m in memo_stats.values()
        ),
        "memo_entries_end": sum(m["entries"] for m in memo_stats.values()),
    }
    return {"engine": engine, "answers": answers, "summary": arm}


def _run_recovery(engine: QueryEngine, seed: int) -> dict:
    """Fail → diverge → recover on the (delta) engine; measure repair."""
    tracer = engine.network.tracer
    entries_before = sum(
        m["entries"] for m in engine.memo_stats().values()
    )
    engine.fail_fraction(RECOVERY_FAIL_FRACTION, protect_partitions=True)
    offline = engine.churn.offline_peer_ids()
    rng = random.Random(seed + 41)
    fresh = [
        Triple(f"rec:{i:03d}", TEXT_ATTRIBUTE, f"zz{rng.randrange(999):03d}rec")
        for i in range(RECOVERY_INSERTS)
    ]
    engine.insert(fresh, respect_online=True)
    before = tracer.snapshot()
    started = time.perf_counter()
    report = engine.recover(repair=True, charge_messages=True)
    wall = time.perf_counter() - started
    delta = before.delta(tracer.snapshot())
    entries_after = sum(m["entries"] for m in engine.memo_stats().values())
    return {
        "failed_peers": len(offline),
        "recovered_peers": report.recovered_peers,
        "divergent_partitions": len(report.divergent_partitions),
        "entries_copied": report.entries_copied,
        "repair_messages": delta.by_phase.get("repair", 0),
        "repair_payload_bytes": delta.payload_bytes,
        "wall_seconds": round(wall, 4),
        "memo_entries_before": entries_before,
        "memo_entries_after": entries_after,
    }


def run_mutate_bench(
    words: int = DEFAULT_WORDS,
    n_peers: int = DEFAULT_PEERS,
    replication: int = DEFAULT_REPLICATION,
    steps: int = DEFAULT_STEPS,
    queries_per_step: int = DEFAULT_QUERIES_PER_STEP,
    write_batch: int = DEFAULT_WRITE_BATCH,
    query_pool: int = DEFAULT_QUERY_POOL,
    seed: int = 0,
    progress=None,
) -> dict:
    """Run the three-arm workload; returns the ``BENCH_mutate.json`` payload."""
    started = time.perf_counter()
    config = StoreConfig(seed=seed, replication=replication)
    corpus = bible_triples(words, seed=seed)
    ops = build_workload(
        corpus, steps, queries_per_step, write_batch, query_pool, seed
    )
    n_queries = sum(1 for op in ops if op[0] == "query")

    arms = {}
    for name in ("delta", "drop", "reference"):
        if progress is not None:
            progress(f"mutate arm: {name}")
        arms[name] = _run_arm(corpus, ops, config, n_peers, name)

    stale = sum(
        1
        for got, want in zip(
            arms["delta"]["answers"], arms["reference"]["answers"]
        )
        if got != want
    )
    stale_drop = sum(
        1
        for got, want in zip(
            arms["drop"]["answers"], arms["reference"]["answers"]
        )
        if got != want
    )
    if progress is not None:
        progress("mutate recovery cycle")
    recovery = _run_recovery(arms["delta"]["engine"], seed)

    delta_rate = arms["delta"]["summary"]["memo_hit_rate"]
    drop_rate = arms["drop"]["summary"]["memo_hit_rate"]
    payload = {
        "schema": MUTATE_SCHEMA,
        "kind": "mutate_bench",
        "scale": {
            "words": words,
            "peers": n_peers,
            "replication": replication,
            "steps": steps,
            "queries_per_step": queries_per_step,
            "write_batch": write_batch,
            "query_pool": query_pool,
            "recovery_fail_fraction": RECOVERY_FAIL_FRACTION,
            "recovery_inserts": RECOVERY_INSERTS,
            "seed": seed,
        },
        "workload": {
            "ops": len(ops),
            "queries": n_queries,
            "writes": len(ops) - n_queries,
        },
        "arms": {name: arm["summary"] for name, arm in arms.items()},
        "staleness": {
            "queries_compared": n_queries,
            "stale_answers_delta": stale,
            "stale_answers_drop": stale_drop,
        },
        "retention": {
            "delta_hit_rate": delta_rate,
            "drop_hit_rate": drop_rate,
            "advantage": round(delta_rate - drop_rate, 4),
        },
        "recovery": recovery,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    }
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m evaluation.mutate",
        description="Mixed read-write benchmark (BENCH_mutate.json baseline).",
    )
    parser.add_argument("--words", type=int, default=DEFAULT_WORDS)
    parser.add_argument("--peers", type=int, default=DEFAULT_PEERS)
    parser.add_argument("--replication", type=int, default=DEFAULT_REPLICATION)
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    parser.add_argument(
        "--queries-per-step", type=int, default=DEFAULT_QUERIES_PER_STEP
    )
    parser.add_argument("--write-batch", type=int, default=DEFAULT_WRITE_BATCH)
    parser.add_argument("--query-pool", type=int, default=DEFAULT_QUERY_POOL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json-dir",
        default=None,
        help="write BENCH_mutate.json into this directory (default: stdout only)",
    )
    args = parser.parse_args(argv)

    def progress(message: str) -> None:
        print(f"  [{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr)

    payload = run_mutate_bench(
        words=args.words,
        n_peers=args.peers,
        replication=args.replication,
        steps=args.steps,
        queries_per_step=args.queries_per_step,
        write_batch=args.write_batch,
        query_pool=args.query_pool,
        seed=args.seed,
        progress=progress,
    )
    retention = payload["retention"]
    staleness = payload["staleness"]
    recovery = payload["recovery"]
    print(
        f"hit_rate delta={retention['delta_hit_rate']} "
        f"drop={retention['drop_hit_rate']} "
        f"advantage={retention['advantage']}"
    )
    print(
        f"stale_answers delta={staleness['stale_answers_delta']} "
        f"drop={staleness['stale_answers_drop']} "
        f"of {staleness['queries_compared']}"
    )
    print(
        f"recovery divergent={recovery['divergent_partitions']} "
        f"copied={recovery['entries_copied']} "
        f"repair_msgs={recovery['repair_messages']} "
        f"memos {recovery['memo_entries_before']}->{recovery['memo_entries_after']}"
    )
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
        path = os.path.join(args.json_dir, "BENCH_mutate.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    ok = (
        staleness["stale_answers_delta"] == 0
        and staleness["stale_answers_drop"] == 0
        and retention["advantage"] > 0
    )
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
