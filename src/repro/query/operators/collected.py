"""The *collected* variant of Algorithm 2 — no delegation, count filter.

This is the algorithm as literally printed in the paper, before the two
optimizations Section 4 describes ("the pictured algorithm omits two
implemented optimization steps"):

1. gram peers return their matching gram entries to the *initiator*
   instead of delegating to the oid peers;
2. the initiator applies the position/length filters — and, because it
   now sees hits for *all* query grams of a candidate at once, it can
   additionally apply the Gravano **count filter** (a candidate must share
   at least ``max(|s1|,|s2|) - 1 - (d-1)·q`` grams), which the delegated
   flow cannot;
3. the initiator batch-fetches the surviving candidates' complete objects
   and verifies the edit distance locally (line 23 at ``p``).

The trade-off, measured by ``benchmarks/test_ablation_delegation.py``:
collected pays to ship every gram hit to the initiator but prunes
candidates globally; delegated never ships raw gram hits but cannot count
across gram peers.  The count filter only strengthens the full-gram-set
strategy — a q-sample deliberately drops grams, so hit counts prove
nothing there and the filter is skipped (the paper's same observation).
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.config import SimilarityStrategy
from repro.core.errors import ExecutionError
from repro.query.operators.base import QUERY_HEADER_BYTES, OperatorContext
from repro.query.operators.similar import (
    SimilarResult,
    _decompose,
    _entry_gram,
    _gram_keys,
    _matching_postings,
    verified_matches,
)
from repro.similarity.filters import CountFilter
from repro.storage.qgrams import count_filter_threshold


def similar_collected(
    ctx: OperatorContext,
    s: str,
    attribute: str,
    d: int,
    initiator_id: int | None = None,
    strategy: SimilarityStrategy | None = None,
    use_count_filter: bool = True,
) -> SimilarResult:
    """Run the collected (non-delegated) ``Similar(s, a, d)``."""
    if d < 0:
        raise ExecutionError(f"similarity distance must be >= 0, got {d}")
    chosen = strategy if strategy is not None else ctx.strategy
    if chosen is SimilarityStrategy.ADAPTIVE:
        # Same cost-based resolution as ``similar``: dispatch the
        # cheapest predicted strategy and record predicted-vs-actual on
        # the decision.
        decision = ctx.decide_strategy(s, attribute, d)
        tracer = ctx.network.tracer
        before = tracer.snapshot()
        result = similar_collected(
            ctx, s, attribute, d, initiator_id,
            strategy=decision.chosen, use_count_filter=use_count_filter,
        )
        delta = before.delta(tracer.snapshot())
        decision.record_actual(delta.messages, delta.payload_bytes)
        result.extras["adaptive"] = 1
        return result
    if chosen is SimilarityStrategy.NAIVE:
        from repro.query.operators.naive import naive_similar

        return naive_similar(ctx, s, attribute, d, initiator_id)
    if initiator_id is None:
        initiator_id = ctx.random_initiator()

    schema_level = attribute == ""
    query_grams = _decompose(s, ctx.config.q, d, chosen)
    gram_keys = _gram_keys(ctx, attribute, query_grams, schema_level)

    answers = ctx.router.route_many(gram_keys.keys(), initiator_id, phase="gram_lookup")
    result = SimilarResult(matches=[])
    result.grams_looked_up = len(query_grams)
    contacted: dict[int, list[str]] = defaultdict(list)
    for key, peer in answers.items():
        contacted[peer.peer_id].append(key)
    result.gram_partitions_contacted = len(contacted)

    # Step 1: gram peers return raw (filtered) gram hits to the initiator.
    counter = CountFilter(len(s), ctx.config.q, d)
    hit_oids: set[str] = set()
    for peer_id, keys in sorted(contacted.items()):
        peer = ctx.network.peer(peer_id)
        if not ctx.router.send_delegate(
            initiator_id,
            peer_id,
            QUERY_HEADER_BYTES
            + sum(len(g.gram) for k in keys for g in gram_keys[k]),
            phase="gram_lookup",
        ):
            # Delegation lost beyond retries (degraded mode): this gram
            # peer never scans its keys.
            ctx.router.record_dropped_candidates(len(keys))
            continue
        returned: list[tuple[str, int]] = []
        payload = 0
        for key in keys:
            occurrences = gram_keys[key]
            for entry in _matching_postings(
                peer.store, key, occurrences[0].gram, attribute, schema_level
            ):
                stored = _entry_gram(entry)
                if not any(
                    ctx.filters.admits(occurrence, stored, d)
                    for occurrence in occurrences
                ):
                    continue
                returned.append((entry.triple.oid, entry.source_length))
                payload += entry.payload_size()
        if returned:
            if not ctx.router.send_result(
                peer_id, initiator_id, payload, phase="gram_lookup"
            ):
                # The hit list never reaches the initiator: its gram
                # observations are lost to the count filter as well.
                ctx.router.record_dropped_candidates(len(returned))
                continue
            for oid, source_length in returned:
                counter.observe(oid, source_length)
                hit_oids.add(oid)

    # Step 2: the initiator's global count filter (full gram sets only).
    if use_count_filter and chosen is SimilarityStrategy.QGRAM:
        candidates = set(counter.admitted())
    else:
        candidates = hit_oids
    result.candidates_after_filters = len(candidates)
    result.extras["count_filter_pruned"] = len(hit_oids) - len(candidates)

    # Step 3: fetch complete objects, verify at the initiator.
    objects = ctx.fetch_objects(
        candidates,
        delegating_peer_id=initiator_id,
        initiator_id=initiator_id,
        phase="oid_lookup",
    )
    result.candidates_verified = len(objects)
    result.matches = verified_matches(
        ctx.make_verifier(s, d), objects, attribute, schema_level
    )
    return result


def count_filter_applicable(query_length: int, q: int, d: int) -> bool:
    """True when the count bound can prune anything for this query."""
    return count_filter_threshold(query_length, query_length, q, d) > 1
