"""Churn-recovery benchmark: fail → query under failure → repair → re-audit.

The paper defers live robustness numbers to PlanetLab; this harness
measures what the simulator can quantify deterministically: how query
success and answer completeness degrade as a growing fraction of peers
fails (``protect_partitions=False`` — hard partition loss allowed), what
the retry/failover machinery costs in the paper's message currency, and
how much anti-entropy repair traffic it takes to restore replica
consistency after the churn episode.

Each cell of the sweep runs one full fail/recover cycle on a fresh
network:

1. install a lossy :class:`~repro.overlay.faults.FaultPlan` and take a
   random ``fail_fraction`` of peers offline;
2. run the query mix in ``degraded`` fault mode, recording per-query
   :class:`~repro.overlay.faults.Completeness` plus the ``retry`` /
   ``failover`` message phases;
3. insert fresh triples while the peers are down (``respect_online`` —
   offline replicas miss the writes and diverge);
4. bring every peer back, audit, repair each divergent partition with
   :func:`~repro.overlay.replication.repair_partition` (repair traffic
   charged under the ``repair`` phase), and re-audit;
5. replay the query mix on the healed, fault-free network.

``python -m evaluation.fault --json-dir benchmarks`` writes the
committed ``BENCH_fault.json`` baseline (schema v1; see
``benchmarks/README.md``).  Everything is seeded — re-running at the
same scale reproduces the file bit-for-bit (modulo ``elapsed_seconds``).
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
from repro.overlay.churn import ChurnController
from repro.overlay.faults import FaultPlan, RetryPolicy
from repro.overlay.replication import audit_replicas, repair_partition
from repro.storage.triple import Triple

#: Schema tag embedded in ``BENCH_fault.json``.
FAULT_SCHEMA = "repro-bench-fault/v1"

#: Default sweep scale (kept small: every cell builds its own network).
DEFAULT_WORDS = 600
DEFAULT_PEERS = 96
DEFAULT_REPLICATION = 3
DEFAULT_QUERIES = 24
DEFAULT_DROP_PROBABILITY = 0.05
DEFAULT_FRACTIONS = (0.0, 0.2, 0.4, 0.6)

#: Triples inserted per cell while peers are down (step 3 divergence).
CHURN_INSERTS = 40


def run_fault_bench(
    words: int = DEFAULT_WORDS,
    n_peers: int = DEFAULT_PEERS,
    replication: int = DEFAULT_REPLICATION,
    queries: int = DEFAULT_QUERIES,
    drop_probability: float = DEFAULT_DROP_PROBABILITY,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    seed: int = 0,
    progress=None,
) -> dict:
    """Run the churn-recovery sweep; returns the ``BENCH_fault.json`` payload."""
    started = time.perf_counter()
    config = StoreConfig(
        seed=seed, replication=replication,
        index_values=False, index_schema_grams=False,
    )
    corpus = bible_triples(words, seed=seed)
    strings = sorted({str(t.value) for t in corpus})
    rng = random.Random(seed + 11)
    query_mix = [(rng.choice(strings), rng.choice((1, 1, 2))) for __ in range(queries)]

    cells = []
    for cell_index, fraction in enumerate(fractions):
        if progress is not None:
            progress(f"fault cell {cell_index + 1}/{len(fractions)}: "
                     f"fail_fraction={fraction}")
        cells.append(
            _run_cell(
                corpus, query_mix, config, n_peers, fraction,
                drop_probability, seed, cell_index,
            )
        )
    return {
        "schema": FAULT_SCHEMA,
        "kind": "fault_bench",
        "scale": {
            "words": words,
            "peers": n_peers,
            "replication": replication,
            "queries": queries,
            "drop_probability": drop_probability,
            "fractions": list(fractions),
            "churn_inserts": CHURN_INSERTS,
            "seed": seed,
        },
        "cells": cells,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    }


def _run_cell(
    corpus,
    query_mix,
    config: StoreConfig,
    n_peers: int,
    fraction: float,
    drop_probability: float,
    seed: int,
    cell_index: int,
) -> dict:
    """One fail → query → repair → re-audit cycle at ``fraction``."""
    engine = QueryEngine.build(n_peers=n_peers, triples=corpus, config=config)
    tracer = engine.network.tracer

    # 1. Lossy transport + hard churn (dark partitions allowed).
    engine.install_faults(
        FaultPlan.lossy(drop_probability, seed=seed + 101 * cell_index),
        RetryPolicy(),
        mode="degraded",
    )
    churn = ChurnController(engine.network, seed=seed + 17 * cell_index)
    report = churn.fail_fraction(fraction, protect_partitions=False)

    # 2. The query mix under failure.
    under_failure = _run_queries(engine, query_mix)

    # 3. Inserts the offline replicas miss (anti-entropy divergence).
    fresh = [
        Triple(f"churn:{cell_index}:{i:03d}", TEXT_ATTRIBUTE, f"zz{i:03d}churn")
        for i in range(CHURN_INSERTS)
    ]
    engine.insert(fresh, respect_online=True)

    # 4. Recover, audit, repair, re-audit.
    recovered = churn.recover_all()
    audit_before = audit_replicas(engine.network)
    before_repair = tracer.snapshot()
    entries_copied = 0
    for partition_index in audit_before.divergent_partitions:
        entries_copied += repair_partition(
            engine.network, partition_index, charge_messages=True
        )
    repair_delta = before_repair.delta(tracer.snapshot())
    audit_after = audit_replicas(engine.network)

    # 5. Replay the mix on the healed, fault-free network.
    engine.clear_faults()
    engine.check_mutations()
    post_repair = _run_queries(engine, query_mix)

    return {
        "fail_fraction": fraction,
        "failed_peers": len(report.failed_peer_ids),
        "dark_partitions": len(report.dark_partitions),
        "under_failure": under_failure,
        "recovered_peers": recovered,
        "divergent_partitions_before_repair": len(audit_before.divergent_partitions),
        "repair": {
            "entries_copied": entries_copied,
            "messages": repair_delta.by_phase.get("repair", 0),
            "payload_bytes": repair_delta.payload_bytes,
        },
        "consistent_after_repair": audit_after.consistent,
        "post_repair": post_repair,
    }


def _run_queries(engine: QueryEngine, query_mix) -> dict:
    """Run the mix, aggregating completeness and fault-phase overhead."""
    complete = 0
    fraction_sum = 0.0
    matches = 0
    messages = 0
    payload_bytes = 0
    retry_messages = 0
    failover_messages = 0
    dropped_candidates = 0
    dark: set[int] = set()
    simulated_latency = 0.0
    for search, d in query_mix:
        result = engine.similar(search, TEXT_ATTRIBUTE, d)
        cost = engine.last_cost()
        matches += len(result.matches)
        messages += cost.messages
        payload_bytes += cost.payload_bytes
        retry_messages += cost.by_phase.get("retry", 0)
        failover_messages += cost.by_phase.get("failover", 0)
        completeness = cost.completeness
        if completeness is None:
            complete += 1
            fraction_sum += 1.0
            continue
        if completeness.fraction == 1.0 and not completeness.is_partial:
            complete += 1
        fraction_sum += completeness.fraction
        dropped_candidates += completeness.dropped_candidates
        dark.update(completeness.dark_partitions)
        simulated_latency += completeness.simulated_latency
    n = len(query_mix)
    return {
        "success_rate": round(complete / n, 4),
        "mean_completeness": round(fraction_sum / n, 4),
        "matches": matches,
        "messages": messages,
        "payload_bytes": payload_bytes,
        "retry_messages": retry_messages,
        "failover_messages": failover_messages,
        "dropped_candidates": dropped_candidates,
        "dark_partitions_seen": len(dark),
        "simulated_latency": round(simulated_latency, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m evaluation.fault",
        description="Churn-recovery benchmark (BENCH_fault.json baseline).",
    )
    parser.add_argument("--words", type=int, default=DEFAULT_WORDS)
    parser.add_argument("--peers", type=int, default=DEFAULT_PEERS)
    parser.add_argument("--replication", type=int, default=DEFAULT_REPLICATION)
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument(
        "--drop-probability", type=float, default=DEFAULT_DROP_PROBABILITY
    )
    parser.add_argument(
        "--fractions", type=float, nargs="+", default=list(DEFAULT_FRACTIONS)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json-dir",
        default=None,
        help="write BENCH_fault.json into this directory (default: stdout only)",
    )
    args = parser.parse_args(argv)

    def progress(message: str) -> None:
        print(f"  [{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr)

    payload = run_fault_bench(
        words=args.words,
        n_peers=args.peers,
        replication=args.replication,
        queries=args.queries,
        drop_probability=args.drop_probability,
        fractions=tuple(args.fractions),
        seed=args.seed,
        progress=progress,
    )
    for cell in payload["cells"]:
        under = cell["under_failure"]
        print(
            f"fail_fraction={cell['fail_fraction']:<4} "
            f"dark={cell['dark_partitions']:<3} "
            f"success={under['success_rate']:<6} "
            f"completeness={under['mean_completeness']:<6} "
            f"retries={under['retry_messages']:<5} "
            f"repair_msgs={cell['repair']['messages']:<4} "
            f"consistent_after={cell['consistent_after_repair']}"
        )
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
        path = os.path.join(args.json_dir, "BENCH_fault.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0 if all(c["consistent_after_repair"] for c in payload["cells"]) else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
