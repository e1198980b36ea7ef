"""A duplicate delegation returns nothing: the oid peer stayed silent.

Several gram peers may delegate the same oid within one query; the
per-query ``answered`` set makes every oid peer after the first stay
silent.  What a silent peer holds must not reach the initiator — not
even when it is a replica that missed a write, whose copy would
otherwise replace the one that was sent.
"""

from repro.core.config import StoreConfig
from repro.engine import QueryEngine
from repro.storage.triple import Triple

from tests.conftest import word_triples


def lagging_replica_engine():
    """A 16-peer, replication-2 engine, one oid and its partition's
    ``(up-to-date, stale)`` replicas: the stale one missed a write that
    added a triple to the oid."""
    engine = QueryEngine.build(
        16, word_triples(), StoreConfig(seed=3, replication=2)
    )
    network = engine.network
    oid = word_triples()[0].oid
    partition = network.partition_for(network.codec.oid_key(oid))
    fresh_id, stale_id = partition.peer_ids
    engine.churn.fail_peers([stale_id])
    engine.insert([Triple(oid, "word:note", "extra")], respect_online=True)
    engine.recover(repair=False)
    delegate = next(
        peer.peer_id
        for peer in network.peers
        if peer.peer_id not in partition.peer_ids
    )
    return engine, oid, fresh_id, stale_id, delegate


def fetch_without(engine, offline_id, oid, delegate, answered):
    """Fetch ``oid`` while its replica ``offline_id`` is down."""
    engine.churn.fail_peers([offline_id])
    try:
        return engine.ctx.fetch_objects(
            [oid], delegate, delegate, answered=answered
        )
    finally:
        engine.recover(repair=False)


def test_a_silent_stale_replica_does_not_replace_the_sent_copy():
    engine, oid, fresh_id, stale_id, delegate = lagging_replica_engine()
    answered: set[str] = set()
    first = fetch_without(engine, stale_id, oid, delegate, answered)
    assert len(first[oid]) == 3
    assert answered == {oid}
    second = fetch_without(engine, fresh_id, oid, delegate, answered)
    assert second == {}
    # What ``similar`` keeps: the copy the up-to-date replica sent.
    delivered = {**first, **second}
    assert delivered[oid] == first[oid]


def test_a_duplicate_delegation_probes_no_record_and_still_travels():
    engine, oid, fresh_id, stale_id, delegate = lagging_replica_engine()
    answered: set[str] = set()
    fetch_without(engine, stale_id, oid, delegate, answered)
    hits = engine.ctx.fetch_memo.hits
    before = engine.network.tracer.snapshot()
    again = fetch_without(engine, stale_id, oid, delegate, answered)
    sent = before.delta(engine.network.tracer.snapshot())
    assert again == {}
    assert engine.ctx.fetch_memo.hits == hits
    # The delegation is charged; no result comes back.
    assert sent.by_type.get("delegate") == 1
    assert sent.by_type.get("result", 0) == 0
