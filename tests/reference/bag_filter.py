"""Reference: the bag-distance prefilter, one candidate at a time.

A candidate within edit distance ``d`` of the query shares at least
``max(|query|, |candidate|) - d`` characters with it, counted as
multisets (Bartolini, Ciaccia and Patella, SPIRE 2002).  Here the
multiset intersection is taken with ``collections.Counter`` — no code
points, slots, tables or numpy — which makes it the ground truth the
vectorized :func:`repro.similarity.kernels._prefilter_survivors` is
property-tested against.
"""

from __future__ import annotations

from collections import Counter


def survivors(query: str, pending: list[str], d: int) -> list[int]:
    """Indices of ``pending`` whose bag intersection meets the bound."""
    query_bag = Counter(query)
    return [
        index
        for index, candidate in enumerate(pending)
        if sum((Counter(candidate) & query_bag).values())
        >= max(len(candidate), len(query)) - d
    ]
