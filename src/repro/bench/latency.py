"""Query response-time estimation.

The paper's Figure 1 reports messages and bytes, then remarks that the
naive strategy's good-looking message counts hide "the enormous effort
incurred by comparing the strings at the peers locally, which will result
in quite poor query answering times" (Section 6).  This module makes that
remark quantitative with a deliberately simple, documented model:

* network time — messages travel hop by hop; phases whose peers are
  contacted by a shower/broadcast run in *parallel*, so the network
  critical path is ``(routing depth + dissemination depth + 1 return) *
  hop_latency``;
* compute time — local string comparisons at the busiest peer (they run
  in parallel across peers, so the *maximum* per-peer count gates the
  response), each costing ``comparison_cost_us`` for a banded
  edit-distance check.

The absolute constants are arbitrary; the point is the *ratio* between
strategies: the naive broadcast makes every region peer compare its whole
slice, while the q-gram strategies verify a handful of candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.query.cost import LatencyModel
from repro.query.operators.similar import SimilarResult


@dataclass
class LatencyEstimate:
    """Decomposed response-time estimate for one similarity query."""

    network_ms: float
    compute_ms: float

    @property
    def total_ms(self) -> float:
        return self.network_ms + self.compute_ms


def estimate_similar_latency(
    result: SimilarResult,
    n_partitions: int,
    model: LatencyModel | None = None,
) -> LatencyEstimate:
    """Estimate one ``Similar`` query's response time from its diagnostics.

    Naive runs (``extras['region_peers']`` present) disseminate through
    the whole region (depth ≈ log2 of its size, peers scan in parallel)
    and their busiest peer performs ``extras['max_peer_comparisons']``
    comparisons.  Gram runs disseminate to the gram partitions and verify
    at most a few candidates per oid peer — modelled as the candidate
    count spread over the contacted partitions.
    """
    model = model if model is not None else LatencyModel()
    region_peers = result.extras.get("region_peers")
    if region_peers is not None:
        dissemination = math.ceil(math.log2(max(2, region_peers)))
        comparisons = result.extras.get(
            "max_peer_comparisons", result.candidates_verified
        )
    else:
        dissemination = math.ceil(
            math.log2(max(2, result.gram_partitions_contacted))
        ) + 1  # one extra stage: gram peers -> oid peers
        contacted = max(1, result.gram_partitions_contacted)
        comparisons = math.ceil(result.candidates_verified / contacted)
    return LatencyEstimate(
        network_ms=model.network_time_ms(n_partitions, dissemination),
        compute_ms=model.compute_time_ms(comparisons),
    )
