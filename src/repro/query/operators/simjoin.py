"""``SimJoin(ln, rn, d, p)`` — the similarity join of Algorithm 3.

Joins objects whose ``ln`` attribute value is within edit distance ``d``
of some object's ``rn`` value.  Faithful to the paper's first version:
the left set is retrieved with one attribute scan and a separate
similarity selection runs *per left object* ("which should be optimized
in future variants" — the optimization, value-level caching, is available
behind ``cache_values=True``).

Variants:

* ``rn = ""`` — schema-level join: left values are matched against
  attribute *names* (the paper's typo-detection example);
* :func:`anchored_sim_join` — the evaluation workload's form: the left
  side is anchored at a concrete search string (its ``key(ln#s)``
  objects) instead of the whole column, keeping the cost of one query
  comparable to a top-N query (``evaluation/workload.py`` gives this
  reading of the paper's §6 workload).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SimilarityStrategy
from repro.core.errors import ExecutionError
from repro.query.operators.base import MatchedObject, OperatorContext
from repro.query.operators.exact import scan_attribute, select_equals
from repro.query.operators.similar import SimilarResult, similar
from repro.similarity.verify import VerifierPool
from repro.storage.triple import Triple


@dataclass
class JoinPair:
    """One joined pair: the left triple and the right matched object."""

    left: Triple
    right: MatchedObject

    @property
    def distance(self) -> float:
        return self.right.distance


@dataclass
class SimJoinResult:
    """Join output plus per-probe diagnostics."""

    pairs: list[JoinPair]
    left_size: int = 0
    probes: int = 0
    probe_results: list[SimilarResult] = field(default_factory=list)


def sim_join(
    ctx: OperatorContext,
    left_attribute: str,
    right_attribute: str,
    d: int,
    initiator_id: int | None = None,
    strategy: SimilarityStrategy | None = None,
    cache_values: bool = False,
) -> SimJoinResult:
    """Run Algorithm 3 over the full left column.

    ``right_attribute = ""`` performs the schema-level join.  An empty
    ``left_attribute`` (the paper notes it "represents a very expensive
    operation") is rejected here; anchor the left side explicitly instead.
    """
    if not left_attribute:
        raise ExecutionError(
            "unanchored left side is not supported — use anchored_sim_join "
            "or scan the relation explicitly"
        )
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    left = scan_attribute(ctx, left_attribute, initiator_id)
    return _probe_right(
        ctx, left, right_attribute, d, initiator_id, strategy, cache_values
    )


def anchored_sim_join(
    ctx: OperatorContext,
    left_attribute: str,
    search_string: str,
    right_attribute: str,
    d: int,
    initiator_id: int | None = None,
    strategy: SimilarityStrategy | None = None,
) -> SimJoinResult:
    """Workload variant: left side = objects with ``ln = search_string``."""
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    anchored = select_equals(
        ctx, left_attribute, search_string, initiator_id, fetch_full_objects=False
    )
    left = [
        triple
        for match in anchored
        for triple in match.triples
        if triple.attribute == left_attribute
    ]
    return _probe_right(
        ctx, left, right_attribute, d, initiator_id, strategy, cache_values=False
    )


def _probe_right(
    ctx: OperatorContext,
    left: list[Triple],
    right_attribute: str,
    d: int,
    initiator_id: int,
    strategy: SimilarityStrategy | None,
    cache_values: bool,
) -> SimJoinResult:
    """Lines 3–6 of Algorithm 3: one similarity selection per left object."""
    result = SimJoinResult(pairs=[], left_size=len(left))
    cache: dict[str, SimilarResult] = {}
    # Probes for the same left value share one verifier memo even when
    # whole-probe caching (``cache_values``) is off; a context-wide pool
    # extends that sharing across queries.
    verifiers = (
        ctx.verifier_pool if ctx.verifier_pool is not None else VerifierPool()
    )
    for triple in sorted(left, key=lambda t: (t.oid, str(t.value))):
        value = str(triple.value)
        if cache_values and value in cache:
            probe = cache[value]
        else:
            probe = similar(
                ctx,
                value,
                right_attribute,
                d,
                initiator_id,
                strategy=strategy,
                verifier=verifiers.get(value, d),
            )
            result.probes += 1
            result.probe_results.append(probe)
            if cache_values:
                cache[value] = probe
        for match in probe.matches:
            result.pairs.append(JoinPair(left=triple, right=match))
    return result
