"""Bulk-charged flows against the per-message reference loop.

Without a verbose log, a healthy fetch charges its delegate/result fan
(and ``route_many`` its shower forwards) through
``MessageTracer.send_bulk``; with ``record_log=True`` every message is
charged one by one.  The two must be indistinguishable in everything a
measurement reads: totals, per-type and per-phase counts, per-phase
bytes, and the answers themselves.
"""

import pytest

from repro.core.config import StoreConfig
from repro.engine import QueryEngine

from tests.conftest import TEXT_ATTR, word_triples

STRATEGIES = ["qsamples", "qgrams", "naive", "adaptive"]

SEARCHES = [("apple", 1), ("grape", 2), ("banana", 1), ("apple", 1), ("overlay", 2)]


def build(strategy: str, verbose: bool) -> QueryEngine:
    engine = QueryEngine.build(
        48, word_triples(), StoreConfig(seed=13, replication=2), strategy
    )
    engine.network.tracer.record_log = verbose
    engine.analyze([TEXT_ATTR])
    return engine


def workload(engine: QueryEngine) -> list:
    """A fixed mix of every fetch-ending operator; returns the answers."""
    answers = []
    for search, d in SEARCHES:
        result = engine.similar(search, TEXT_ATTR, d)
        answers.append([(m.oid, m.matched, m.distance) for m in result.matches])
    top = engine.top_n_string(TEXT_ATTR, "cherry", 4)
    answers.append([(m.oid, m.matched, m.distance) for m in top.matches])
    join = engine.sim_join_anchored(TEXT_ATTR, "berry", TEXT_ATTR, 1)
    answers.append(
        sorted((p.left.oid, p.right.oid, p.right.distance) for p in join.pairs)
    )
    return answers


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bulk_charges_equal_the_per_message_loop(strategy):
    verbose, bulk = build(strategy, True), build(strategy, False)
    assert workload(verbose) == workload(bulk)
    logged, counted = verbose.network.tracer, bulk.network.tracer
    assert counted.snapshot() == logged.snapshot()
    assert counted.bytes_by_phase == logged.bytes_by_phase
    # The reference really went message by message, the other did not.
    assert len(logged.log) == logged.message_count
    assert counted.log == []
