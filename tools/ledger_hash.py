#!/usr/bin/env python3
"""Digest of one fixed workload's full message ledger and answers.

The bit-identical measurement contract says no change may alter what a
query sends or returns.  ``perf.run``'s ``sim_messages``/``sim_bytes``
check the totals; this command checks *every message*: it runs one
fixed-seed workload — the four strategy arms (q-samples, q-grams, naive
broadcast, adaptive) each over their own engine, with similarity
queries, string top-N, anchored joins, engine-routed inserts and deletes
and a churn episode (fail, write past the offline replicas, read,
recover with priced repair) — under the tracer's verbose ``record_log``
and prints

* the number of messages,
* the sha256 of the ledger: every message's type, sender, receiver,
  payload bytes and phase, in the order sent,
* the sha256 of every operation's answer (match sets with distances,
  write and repair counts).

Verifier counters are left out on purpose: they describe how a kernel
got its answer and differ between kernels.  A refactor or optimisation
must print the same three lines before and after; a change that means to
move a series updates the digests pinned in
``tests/test_ledger_hash.py`` in the same commit.

Run from the repository root::

    PYTHONPATH=src python tools/ledger_hash.py
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys

SEED = 20260926
PEERS = 128
WORDS = 1000
STEPS = 12
STRATEGIES = ("qsamples", "qgrams", "naive", "adaptive")
WRITE_BATCH = 6


def _matches(found) -> list:
    return sorted((m.oid, m.matched, m.distance) for m in found)


def _run_arm(strategy: str, corpus, config, answer) -> list:
    """One strategy arm on its own engine; returns its verbose ledger.

    ``answer(...)`` receives every operation's result.  The operation
    stream is drawn from one seed, so all four arms see the same one.
    """
    from repro import QueryEngine, Triple
    from repro.datasets.bible import TEXT_ATTRIBUTE

    words = [str(triple.value) for triple in corpus]
    rng = random.Random(SEED)
    live: list[list] = []
    serial = itertools.count()

    def fresh() -> list:
        batch = []
        for __ in range(WRITE_BATCH):
            base = rng.choice(words)
            cut = rng.randrange(len(base) + 1)
            value = base[:cut] + rng.choice("aeiou") + base[cut:]
            batch.append(Triple(f"new:{next(serial):05d}", TEXT_ATTRIBUTE, value))
        live.append(batch)
        return batch

    engine = QueryEngine.build(PEERS, corpus, config, strategy)
    engine.network.tracer.record_log = True
    engine.analyze([TEXT_ATTRIBUTE])

    def reads() -> None:
        search = rng.choice(words)
        for d in (1, 2):
            found = engine.similar(search, TEXT_ATTRIBUTE, d).matches
            answer(strategy, "similar", search, d, _matches(found))
        top = engine.top_n_string(TEXT_ATTRIBUTE, search, 5, 3)
        answer(strategy, "topn", search, _matches(top.matches))

    for step in range(STEPS):
        reads()
        if step % 2 == 0:
            answer(strategy, "insert", engine.insert(fresh()))
        else:
            batch = live.pop(rng.randrange(len(live)))
            answer(strategy, "delete", engine.delete(batch))
        if step != STEPS // 2:
            continue
        # Mid-way: a join, then a churn episode around a write.
        search = rng.choice(words)
        join = engine.sim_join_anchored(
            TEXT_ATTRIBUTE, search, TEXT_ATTRIBUTE, 2
        )
        answer(
            strategy, "join", search,
            sorted(
                (p.left.oid, p.right.oid, p.right.distance) for p in join.pairs
            ),
        )
        failed = engine.fail_fraction(0.25)
        answer(strategy, "fail", sorted(failed.failed_peer_ids))
        answer(
            strategy, "insert-past-offline",
            engine.insert(fresh(), respect_online=True),
        )
        reads()
        report = engine.recover(charge_messages=True)
        answer(
            strategy, "recover", report.recovered_peers,
            report.divergent_partitions, report.entries_copied,
        )
    reads()
    return engine.network.tracer.log


def run() -> tuple[int, str, str]:
    """``(messages, ledger sha256, answers sha256)`` of the workload."""
    from repro import StoreConfig
    from repro.datasets.bible import bible_triples

    corpus = bible_triples(WORDS, seed=SEED)
    config = StoreConfig(
        seed=SEED % 1000, replication=3,
        index_values=False, index_schema_grams=False,
    )
    ledger = hashlib.sha256()
    answers = hashlib.sha256()
    messages = 0
    for strategy in STRATEGIES:
        log = _run_arm(
            strategy, corpus, config,
            lambda *parts: answers.update(repr(parts).encode()),
        )
        messages += len(log)
        for m in log:
            ledger.update(
                f"{m.type.value},{m.sender},{m.receiver},"
                f"{m.payload_bytes},{m.phase}\n".encode()
            )
    return messages, ledger.hexdigest(), answers.hexdigest()


def main() -> int:
    messages, ledger, answers = run()
    print(f"messages {messages}")
    print(f"ledger   {ledger}")
    print(f"answers  {answers}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
