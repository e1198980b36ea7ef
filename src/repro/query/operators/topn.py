"""Top-N queries — Algorithms 4 and 5.

Numeric top-N (``MIN``/``MAX``/``NN``) probes the overlay with range
queries whose width is estimated from *local data density*: "we calculate
a first range to query based on the locally provided data density (which
is approximately equivalent to the data density on all other peers
because of load balancing)".  When a probe returns fewer than ``N``
objects, the window is re-estimated from the observed density and moved
(``MAX``/``MIN``) or symmetrically enlarged (``NN``) until at least ``N``
objects are found, then sorted and pruned (Algorithm 4 line 14).

String top-N — as the paper notes, only meaningful with ``NN`` — handles
"concrete distances instead of interval start and end points": the edit
distance radius ``d`` plays the role of the interval width and grows by
one per round (iterative deepening over ``Similar``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import RankFunction, SimilarityStrategy
from repro.core.errors import ExecutionError
from repro.overlay.messages import MessageType
from repro.query.operators.base import MatchedObject, OperatorContext
from repro.query.operators.range_scan import select_range
from repro.query.operators.similar import SimilarResult, similar
from repro.similarity.numeric import Interval, absolute_distance
from repro.storage.indexing import EntryKind
from repro.storage.triple import is_numeric

#: Upper bound on probing rounds; density re-estimation converges long
#: before this unless the attribute holds fewer than N values.
MAX_ROUNDS = 32

#: Default deepening radius of string top-N: the paper's "up to a
#: maximal distance of 5" (Section 6).
TOP_N_MAX_DISTANCE = 5


@dataclass
class TopNResult:
    """Ranked matches plus probing diagnostics."""

    matches: list[MatchedObject]
    rounds: int = 0
    probed_intervals: list[tuple[float, float]] = field(default_factory=list)
    probe_results: list[SimilarResult] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        """True when probing stopped before finding N matches."""
        return self.rounds >= MAX_ROUNDS


def top_n_numeric(
    ctx: OperatorContext,
    attribute: str,
    n: int,
    rank: RankFunction,
    reference: float = 0.0,
    initiator_id: int | None = None,
    fetch_full_objects: bool = False,
) -> TopNResult:
    """Algorithm 4 on a numeric attribute.

    ``reference`` is the search value for ``NN`` ranking; it is ignored
    for ``MIN``/``MAX`` (those start from the attribute's extremes, which
    the initiator learns from its local slice or one extra probe).  With
    ``fetch_full_objects`` the final N matches are expanded into complete
    objects via batched oid lookups (Algorithm 4 returns oids; callers
    that project other attributes need the expansion).
    """
    if n < 1:
        raise ExecutionError(f"top-N needs N >= 1, got {n}")
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    if rank is RankFunction.NN:
        result = _top_n_nn(ctx, attribute, n, reference, initiator_id)
    else:
        result = _top_n_extreme(ctx, attribute, n, rank, initiator_id)
    if fetch_full_objects and result.matches:
        objects = ctx.fetch_objects(
            [m.oid for m in result.matches],
            delegating_peer_id=initiator_id,
            initiator_id=initiator_id,
            phase="topn",
        )
        result.matches = [
            MatchedObject(m.oid, m.matched, m.distance, objects.get(m.oid, m.triples))
            for m in result.matches
        ]
    return result


def _probe_region_values(
    ctx: OperatorContext,
    attribute: str,
    initiator_id: int,
    from_top: bool = False,
) -> list[float]:
    """Route into the attribute's key region and find a peer with values.

    The region can span several partitions (the data-aware trie splits
    deeper than the attribute prefix), and skew can leave some of them
    without values of this attribute, so after the routed entry the probe
    walks neighbouring partitions — one charged ``FORWARD`` each — until
    it finds a non-empty slice.  ``from_top`` walks the region downwards
    (for ``MAX`` extremes) instead of upwards.
    """
    prefix = ctx.codec.attr_prefix(attribute)
    partitions = ctx.network.partitions_under(prefix)
    ordered = list(reversed(partitions)) if from_top else partitions
    entry_peer = ctx.router.route(ordered[0].path, initiator_id, phase="topn")
    previous = entry_peer
    for partition in ordered:
        if partition.contains(previous.peer_id):
            peer = previous
        else:
            peer = ctx.network.peer(partition.peer_ids[0])
            ctx.router.tracer.send(
                MessageType.FORWARD, previous.peer_id, peer.peer_id, phase="topn"
            )
            previous = peer
        values = _local_values(peer, attribute)
        if values:
            # The probe returns a density summary, not the raw values.
            ctx.router.send_result(peer.peer_id, initiator_id, 24, phase="topn")
            return values
    raise ExecutionError(f"attribute {attribute!r} holds no numeric values")


def _local_density(
    ctx: OperatorContext, attribute: str, initiator_id: int
) -> tuple[float, float]:
    """Lines 1–3: estimate values-per-unit density and the value spread.

    Uses the initiating peer's local slice of the attribute; when the
    initiator stores none of it, a routed probe (charged) asks peers
    inside the attribute's region — the paper's "we can initiate a proper
    query".  Returns ``(density, local_range_width)``.
    """
    peer = ctx.network.peer(initiator_id)
    values = _local_values(peer, attribute)
    if not values:
        values = _probe_region_values(ctx, attribute, initiator_id)
    spread = max(values) - min(values)
    if spread <= 0:
        spread = max(abs(values[0]), 1.0) * 1e-6
    return len(values) / spread, spread


def _local_values(peer, attribute: str) -> list[float]:
    return [
        float(entry.triple.value)
        for entry in peer.store.entries_of_kind(EntryKind.ATTR_VALUE)
        if entry.triple.attribute == attribute and is_numeric(entry.triple.value)
    ]


def _attribute_extreme(
    ctx: OperatorContext, attribute: str, rank: RankFunction, initiator_id: int
) -> float:
    """Largest (MAX) or smallest (MIN) stored value of the attribute.

    The order-preserving hash puts the extreme values on the region's
    boundary partitions, so the probe enters the region at the right end
    and walks inward until it finds values (Algorithm 4 line 5's "if this
    is not stored locally we can initiate a proper query").
    """
    values = _probe_region_values(
        ctx, attribute, initiator_id, from_top=rank is RankFunction.MAX
    )
    return max(values) if rank is RankFunction.MAX else min(values)


def _top_n_extreme(
    ctx: OperatorContext,
    attribute: str,
    n: int,
    rank: RankFunction,
    initiator_id: int | None,
) -> TopNResult:
    """MAX/MIN ranking: slide a density-sized window inward from the extreme."""
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    density, __ = _local_density(ctx, attribute, initiator_id)
    extreme = _attribute_extreme(ctx, attribute, rank, initiator_id)
    window = max(n / density, 1e-9)

    result = TopNResult(matches=[])
    collected: dict[str, MatchedObject] = {}
    if rank is RankFunction.MAX:
        hi = extreme
        lo = hi - window
    else:
        lo = extreme
        hi = lo + window
    while len(collected) < n and result.rounds < MAX_ROUNDS:
        result.rounds += 1
        result.probed_intervals.append((lo, hi))
        triples = select_range(ctx, attribute, Interval(lo, hi), initiator_id)
        for triple in triples:
            collected.setdefault(
                triple.oid,
                MatchedObject(
                    triple.oid, str(triple.value), float(triple.value), (triple,)
                ),
            )
        # Line 11: re-estimate the window from the observed density.
        observed = len(triples) / (hi - lo) if triples else density / 2
        missing = n - len(collected)
        if missing <= 0:
            break
        window = max(missing / max(observed, 1e-12), window)
        if rank is RankFunction.MAX:
            hi = lo
            lo = hi - window
        else:
            lo = hi
            hi = lo + window
    reverse = rank is RankFunction.MAX
    ranked = sorted(
        collected.values(), key=lambda m: (m.distance, m.oid), reverse=reverse
    )
    result.matches = ranked[:n]
    return result


def _top_n_nn(
    ctx: OperatorContext,
    attribute: str,
    n: int,
    reference: float,
    initiator_id: int | None,
) -> TopNResult:
    """NN ranking: grow a symmetric interval around the search value."""
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    density, __ = _local_density(ctx, attribute, initiator_id)
    window = max(n / density, 1e-9)

    result = TopNResult(matches=[])
    collected: dict[str, MatchedObject] = {}
    lo = reference - window / 2
    hi = reference + window / 2
    while result.rounds < MAX_ROUNDS:
        result.rounds += 1
        result.probed_intervals.append((lo, hi))
        triples = select_range(ctx, attribute, Interval(lo, hi), initiator_id)
        for triple in triples:
            collected.setdefault(
                triple.oid,
                MatchedObject(
                    triple.oid,
                    str(triple.value),
                    absolute_distance(float(triple.value), reference),
                    (triple,),
                ),
            )
        if len(collected) >= n:
            # All candidates at distance <= the covered radius are in; the
            # N nearest of them are final once the radius covers them.
            radius = min(reference - lo, hi - reference)
            ranked = sorted(collected.values(), key=lambda m: (m.distance, m.oid))
            if ranked[n - 1].distance <= radius:
                result.matches = ranked[:n]
                return result
        observed = len(triples) / (hi - lo) if triples else density / 2
        missing = max(n - len(collected), 1)
        growth = max(missing / max(observed, 1e-12), window / 2)
        lo -= growth / 2
        hi += growth / 2
    result.matches = sorted(collected.values(), key=lambda m: (m.distance, m.oid))[:n]
    return result


def top_n_string_nn(
    ctx: OperatorContext,
    attribute: str,
    search: str,
    n: int,
    max_distance: int = TOP_N_MAX_DISTANCE,
    initiator_id: int | None = None,
    strategy: SimilarityStrategy | None = None,
) -> TopNResult:
    """String nearest-neighbour top-N via iterative deepening on ``d``.

    Round ``i`` runs ``Similar(search, attribute, d=i)``; the radius grows
    until at least ``n`` matches exist or ``max_distance`` is reached —
    the paper's "handle concrete distances instead of interval start and
    end points".  Matches are ranked by edit distance (the ``ORDER BY ?a
    NN 'x'`` semantics), ties broken by oid.
    """
    if n < 1:
        raise ExecutionError(f"top-N needs N >= 1, got {n}")
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    result = TopNResult(matches=[])
    best: dict[str, MatchedObject] = {}
    for d in range(max_distance + 1):
        result.rounds += 1
        probe = similar(ctx, search, attribute, d, initiator_id, strategy=strategy)
        result.probe_results.append(probe)
        for match in probe.matches:
            previous = best.get(match.oid)
            if previous is None or match.distance < previous.distance:
                best[match.oid] = match
        if len(best) >= n:
            break
    result.matches = sorted(best.values(), key=lambda m: (m.distance, m.oid))[:n]
    return result
