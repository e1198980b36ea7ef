"""Fault tolerance: lossy transport, retries, and degraded partial results.

Run with::

    python examples/fault_tolerance.py

Section 2's guarantee — ``Retrieve`` always succeeds "if at least one peer
in each partition is reachable (ensured through redundant routing table
entries and replication)" — made concrete in three acts:

1. a replicated network keeps answering similarity queries *completely*
   while 40% of its peers are offline and 10% of messages drop on the
   wire — the retry/backoff and replica-failover overhead shows up as
   extra messages under the ``retry``/``failover`` phases;
2. when whole partitions go dark (``protect_partitions=False``), the
   engine's ``degraded`` fault mode returns *partial* results annotated
   with a ``Completeness`` record instead of raising;
3. the availability math shows how to size the replication factor.

The fault layer lives in ``repro.overlay.faults``; the replication/
availability formulas in ``repro.overlay.replication``.
"""

from repro import FaultPlan, QueryEngine, StoreConfig, Triple
from repro.overlay.churn import ChurnController
from repro.overlay.replication import (
    audit_replicas,
    network_availability,
    partition_availability,
    repair_partition,
    replicas_needed,
)

WORDS = [
    "resilient", "resilience", "redundant", "redundancy", "replica",
    "replicate", "partition", "partial", "failure", "failover",
    "overlay", "overload", "recover", "recovery", "robust",
]


def main() -> None:
    triples = [
        Triple(f"w:{i:04d}", "word:text", w) for i, w in enumerate(WORDS)
    ]
    config = StoreConfig(seed=21, replication=3)
    store = QueryEngine.build(n_peers=48, triples=triples, config=config)
    run_demo(store, config)


def run_demo(store: QueryEngine, config: StoreConfig) -> None:
    network = store.network
    print(
        f"{network.n_peers} peers, {network.n_partitions} partitions, "
        f"replication k={config.replication}\n"
    )

    # Baseline query on the healthy network.
    result = store.similar("resilent", "word:text", d=2)
    print("healthy network, similar('resilent', d=2):")
    print(f"  {[m.matched for m in result.matches]}")
    print(f"  [{store.last_cost().messages} messages]\n")

    # Act 1 — lossy transport + 40% churn, every partition kept alive.
    store.install_faults(FaultPlan.lossy(0.10, seed=4), mode="degraded")
    churn = ChurnController(network, seed=1)
    report = churn.fail_fraction(0.4)  # protect_partitions=True
    print(
        f"churn: {len(report.failed_peer_ids)} peers failed, "
        f"{report.online_peers} online, 10% message loss, "
        f"all partitions reachable: {report.all_partitions_reachable}"
    )
    result = store.similar("resilent", "word:text", d=2)
    cost = store.last_cost()
    c = cost.completeness
    print("under lossy churn, same query (complete despite the faults):")
    print(f"  {[m.matched for m in result.matches]}")
    print(
        f"  [{cost.messages} messages, of which "
        f"{cost.by_phase.get('retry', 0)} retries and "
        f"{cost.by_phase.get('failover', 0)} failover contacts; "
        f"completeness={c.fraction:.2f}]\n"
    )

    # Act 2 — hard partition loss: degraded mode returns partial results.
    report = churn.fail_fraction(0.5, protect_partitions=False)
    print(
        f"harder churn: {report.online_peers} peers left, "
        f"dark partitions: {report.dark_partitions}"
    )
    result = store.similar("resilent", "word:text", d=2)
    c = store.last_cost().completeness
    print("partial answer instead of an exception:")
    print(f"  {[m.matched for m in result.matches]}")
    print(
        f"  [completeness={c.fraction:.2f}, "
        f"dark partitions {list(c.dark_partitions)}, "
        f"{c.dropped_candidates} candidates dropped, "
        f"{c.retries} retries, {c.timeouts} timeouts]\n"
    )

    # Recover, repair whatever diverged, and verify the audit.
    churn.recover_all()
    store.clear_faults()
    audit = audit_replicas(network)
    for index in audit.divergent_partitions:
        repair_partition(network, index)
    print(
        "after recover + repair, audit consistent:",
        audit_replicas(network).consistent,
    )
    result = store.similar("resilent", "word:text", d=2)
    print(f"healed network answers fully again: "
          f"{[m.matched for m in result.matches]}\n")

    # Act 3 — sizing replication: how many replicas for 99.9%
    # per-partition availability at various failure rates?
    print("replication sizing (target: 99.9% per-partition availability):")
    for failure_rate in (0.05, 0.2, 0.5):
        k = replicas_needed(failure_rate, 0.999)
        per_partition = partition_availability(k, failure_rate)
        whole = network_availability(network.n_partitions, k, failure_rate)
        print(
            f"  peer failure {failure_rate:>4.0%}: k={k} "
            f"(partition {per_partition:.4f}, "
            f"whole {network.n_partitions}-partition network {whole:.3f})"
        )


if __name__ == "__main__":
    main()
