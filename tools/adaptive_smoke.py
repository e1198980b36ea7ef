"""CI smoke test for the adaptive strategy mode.

Builds a small engine, runs one similarity query in ``ADAPTIVE`` mode,
and asserts the resulting :class:`~repro.overlay.messages.CostReport`
records a complete strategy decision: a concrete chosen strategy plus
its predicted and measured cost.  Exits non-zero on any violation.

Run from the repository root::

    PYTHONPATH=src python tools/adaptive_smoke.py
"""

from __future__ import annotations

import sys


def main() -> int:
    from repro import QueryEngine, StoreConfig, Triple

    words = [
        "adaptive", "adapted", "adopted", "adapter", "chapter",
        "overlay", "overlap", "storage", "strategy", "stratagem",
    ]
    triples = [
        Triple(f"w:{i:04d}", "word:text", word)
        for i, word in enumerate(words)
    ]
    engine = QueryEngine.build(
        n_peers=32, triples=triples, config=StoreConfig(seed=1),
        strategy="adaptive",
    )
    engine.analyze(["word:text"])
    result = engine.query(
        "SELECT ?w WHERE { (?o,word:text,?w) "
        "FILTER (dist(?w,'adaptor') <= 2) }"
    )
    matched = sorted(row["w"] for row in result.rows)
    print(f"rows: {matched}")
    if "adapter" not in matched:
        print("FAIL: expected 'adapter' among the matches", file=sys.stderr)
        return 1
    if not result.cost.decisions:
        print("FAIL: adaptive query recorded no strategy decision",
              file=sys.stderr)
        return 1
    for decision in result.cost.decisions:
        print(f"decision: {decision.summary()}")
        if not decision.chosen.is_physical:
            print("FAIL: chosen strategy is not physical", file=sys.stderr)
            return 1
        if decision.predicted.messages <= 0:
            print("FAIL: missing predicted cost", file=sys.stderr)
            return 1
        if decision.actual_messages is None or decision.actual_messages <= 0:
            print("FAIL: missing measured cost", file=sys.stderr)
            return 1
    print("adaptive smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
