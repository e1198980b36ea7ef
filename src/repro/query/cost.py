"""Cost-based strategy selection — the paper's deferred "ongoing work".

Section 6 leaves the naive-vs-q-gram choice open: "which of these two
approaches, or any other, more sophisticated, strategy, is used is a
choice depending on cost optimizations, which is part of our ongoing
work".  :mod:`repro.query.statistics` already collects the selectivity
summaries that remark calls for; this module consumes them:

* :class:`StrategyCostModel` predicts, for one ``Similar(s, a, d)``
  query, the **messages**, **payload bytes** and **latency** each
  physical strategy would spend — from the overlay's structure (region
  size, expected routing depth), the collected
  :class:`~repro.query.statistics.StatisticsCatalog`, and the latency
  constants of :class:`LatencyModel`;
* :meth:`StrategyCostModel.choose` resolves
  ``SimilarityStrategy.ADAPTIVE`` into a concrete strategy and returns a
  :class:`StrategyDecision` recording every prediction; the operator
  fills in the measured cost after running, so predicted-vs-actual
  accuracy is inspectable on every
  :class:`~repro.overlay.messages.CostReport`.

The model is deliberately *coarse*: closed-form expectations over a
balanced trie (``0.5·log2`` routing walks, balls-into-bins partition
fan-out), not a simulation.  What the adaptive mode needs is the
*ordering* of the strategies and the crossover point where the naive
broadcast's Θ(region) cost overtakes the q-gram strategies' logarithmic
lookups — which these formulas capture by construction.  Without a
catalog (or for attributes never analyzed) all data-dependent terms fall
back to zero and the decision degrades to the structural comparison:
region size versus gram fan-out, still a sane default.

A decision is priced on every adaptive query (and on every deepening
round of an adaptive top-N), so it must cost little beside the query.
It counts the query's grams on the extended string instead of building
them (:func:`~repro.storage.qgrams.gram_counts`), prices the three
strategies in one pass over the terms they share, and keeps the terms
that depend on the partition table alone for as long as the network's
path list is the same list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.core.config import SimilarityStrategy
from repro.storage.qgrams import gram_counts

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.overlay.network import PGridNetwork
    from repro.query.statistics import AttributeStatistics, StatisticsCatalog

#: Strategies the adaptive mode chooses among, in tie-break order
#: (cheapest-first expectation at scale; ties resolve to the earliest).
CANDIDATE_STRATEGIES = (
    SimilarityStrategy.QSAMPLE,
    SimilarityStrategy.QGRAM,
    SimilarityStrategy.NAIVE,
)

#: ``(key, strategy)`` pairs of :data:`CANDIDATE_STRATEGIES`.
_CANDIDATES = tuple((strategy.value, strategy) for strategy in CANDIDATE_STRATEGIES)

#: The adaptive mode's ranking: fewest messages, then fewest bytes.
_RANK = attrgetter("messages", "payload_bytes")

#: Fixed per-message header charged by delegations (mirrors
#: ``repro.query.operators.base.QUERY_HEADER_BYTES`` without importing
#: the operator layer).
QUERY_HEADER_BYTES = 24

#: Assumed wire size of an oid string (the workloads mint ``w:0042``-ish).
OID_BYTES = 8

#: Fixed per-triple overhead assumed when estimating reconstructed-object
#: payloads (attribute name + framing around the value).
TRIPLE_OVERHEAD_BYTES = 16

#: Triples per object assumed when no better information exists.
TRIPLES_PER_OBJECT = 2.0


@dataclass(frozen=True)
class LatencyModel:
    """Cost constants of the response-time model (the evaluation's
    ``evaluation/latency.py`` estimate uses them too)."""

    hop_latency_ms: float = 50.0
    comparison_cost_us: float = 20.0

    def network_time_ms(self, n_partitions: int, dissemination_depth: int) -> float:
        """Critical path of routing + parallel dissemination + return."""
        routing_depth = 0.5 * math.log2(max(2, n_partitions))
        return (routing_depth + dissemination_depth + 1) * self.hop_latency_ms

    def compute_time_ms(self, max_peer_comparisons: int) -> float:
        return max_peer_comparisons * self.comparison_cost_us / 1000.0


@dataclass(frozen=True)
class CostPrediction:
    """Predicted cost of one query under one physical strategy."""

    strategy: SimilarityStrategy
    messages: float
    payload_bytes: float
    latency_ms: float

    def as_dict(self) -> dict[str, float]:
        """JSON-ready view (used by bench reports and the shell)."""
        return {
            "messages": round(self.messages, 1),
            "payload_bytes": round(self.payload_bytes, 1),
            "latency_ms": round(self.latency_ms, 2),
        }


@dataclass
class StrategyDecision:
    """One adaptive resolution: what was predicted, chosen, and measured.

    Created by :meth:`StrategyCostModel.choose` when a query runs in
    ``ADAPTIVE`` mode; :meth:`~repro.query.operators.base.OperatorContext.run_adaptive`
    fills ``actual_messages`` / ``actual_payload_bytes`` from the tracer
    delta of the dispatched run, and the operation's
    :class:`~repro.query.operators.base.OperationScope` puts the decision
    on its :class:`~repro.overlay.messages.CostReport`.
    """

    search: str
    attribute: str
    d: int
    chosen: SimilarityStrategy
    predictions: dict[str, CostPrediction] = field(default_factory=dict)
    actual_messages: int | None = None
    actual_payload_bytes: int | None = None

    @property
    def predicted(self) -> CostPrediction:
        """The prediction for the chosen strategy."""
        return self.predictions[self.chosen.value]

    def record_actual(self, messages: int, payload_bytes: int) -> None:
        """Fill in the measured cost of the dispatched run."""
        self.actual_messages = messages
        self.actual_payload_bytes = payload_bytes

    def summary(self) -> str:
        """One-line human-readable form (shell / smoke output)."""
        predicted = self.predicted
        actual = (
            f"{self.actual_messages}"
            if self.actual_messages is not None
            else "?"
        )
        return (
            f"Similar({self.search!r}, {self.attribute!r}, d={self.d}) -> "
            f"{self.chosen.value} "
            f"(predicted {predicted.messages:.0f} msgs, actual {actual})"
        )


#: Attributes whose region terms one trie shape keeps: a stream of
#: never-seen attribute names must not grow the table without bound.
_REGION_LIMIT = 1 << 12


@dataclass(frozen=True, slots=True)
class _Region:
    """Structural terms of one attribute's key region on one trie shape."""

    #: The region's partitions are ``network.partitions[lo:hi]``.
    lo: int
    hi: int
    #: Partitions holding the attribute's values (all, for schema level).
    size: int
    #: The naive arm's routing + dissemination + return time, all peers live.
    naive_network_ms: float


class _TrieShape:
    """The formulas' terms that depend on the partition table alone.

    Valid while ``network._paths`` is the very list it was built from:
    :class:`~repro.overlay.membership.MembershipManager` installs a new
    list on every split or merge, and a replica join keeps it.
    """

    __slots__ = (
        "network", "paths", "latency_model", "n_partitions", "hops", "regions",
    )

    def __init__(self, network: "PGridNetwork", latency_model: LatencyModel):
        self.network = network
        self.paths = network._paths
        self.latency_model = latency_model
        self.n_partitions = network.n_partitions
        #: Expected ROUTE messages of one routed walk (Section 2).
        self.hops = 0.5 * math.log2(max(2, self.n_partitions))
        self.regions: dict[str, _Region] = {}

    def region(self, attribute: str) -> _Region:
        region = self.regions.get(attribute)
        if region is not None:
            return region
        network = self.network
        if attribute == "":
            lo, hi = 0, self.n_partitions
            size = self.n_partitions
        else:
            lo, hi = network.partition_span(
                network.codec.attr_prefix(attribute)
            )
            size = max(1, hi - lo)
        region = _Region(lo, hi, size, self.naive_network_ms(size))
        if len(self.regions) < _REGION_LIMIT:
            self.regions[attribute] = region
        return region

    def naive_network_ms(self, region_size: int) -> float:
        """Routing, a broadcast shower as deep as the region, return."""
        return self.latency_model.network_time_ms(
            self.n_partitions, math.ceil(math.log2(max(2, region_size)))
        )


@dataclass(slots=True)
class _QueryTerms:
    """What every strategy's formula for one query shares."""

    s: str
    d: int
    stats: "AttributeStatistics | None"
    shape: _TrieShape
    region: _Region
    #: Fraction of the region's partitions with a live replica.
    reach: float
    #: Expected matching rows, already scaled by ``reach``.
    matches: float
    object_bytes: float
    #: Expected postings of one gram key, and the share the
    #: position/length filters admit.
    postings: float
    selectivity: float


class StrategyCostModel:
    """Per-strategy cost predictions over one network.

    The statistics catalog is passed per call, so a freshly
    ``analyze``-d or write-patched catalog is always the one consulted,
    and nothing computed from it is kept.  What the model does keep is
    the trie shape's structural terms — the routing depth and, per
    attribute, the region span, its size and the naive arm's network
    time — filled on the first decision and rebuilt when the network's
    path list or :attr:`latency_model` is replaced.  Replica
    reachability is read from the peers on every call.
    """

    def __init__(self, network: "PGridNetwork"):
        self.network = network
        self.latency_model = LatencyModel()
        self._shape: _TrieShape | None = None

    # -- structural expectations -----------------------------------------------

    def _trie_shape(self) -> _TrieShape:
        shape = self._shape
        if (
            shape is None
            or shape.paths is not self.network._paths
            or shape.latency_model is not self.latency_model
        ):
            shape = self._shape = _TrieShape(self.network, self.latency_model)
        return shape

    def _reachable_fraction(self, attribute: str) -> float:
        """Fraction of the attribute's region partitions with a live replica.

        The replica-aware leg of the model: under churn, a partition with
        every replica offline contributes neither broadcast targets nor
        rows, so region sizes and row counts scale by this fraction.  On
        a healthy network (the common case, one read of the network
        ledger's offline count) the fraction is exactly 1.0 and every
        prediction stays bit-identical to the churn-unaware model.
        """
        network = self.network
        if not network.ledger.offline:
            return 1.0
        region = self._trie_shape().region(attribute)
        partitions = network.partitions[region.lo : region.hi]
        if not partitions:
            return 1.0
        peers = network.peers
        live = 0
        # Plain loops: a generator per partition costs 4x on this path.
        for partition in partitions:
            for peer_id in partition.peer_ids:
                if peers[peer_id].online:
                    live += 1
                    break
        return live / len(partitions)

    @staticmethod
    def _distinct_partitions(partitions: int, keys: float) -> float:
        """Expected distinct partitions hit by ``keys`` uniform keys."""
        if partitions <= 0 or keys <= 0:
            return 0.0
        return partitions * (1.0 - (1.0 - 1.0 / partitions) ** keys)

    def _fetch_messages(self, shape: _TrieShape, objects: float) -> float:
        """Expected messages of one batched ``fetch_objects`` round."""
        if objects <= 0:
            return 0.0
        oid_partitions = self._distinct_partitions(shape.n_partitions, objects)
        # route_many entry walk + forwards, one delegate and one result
        # return per contacted oid partition.
        return shape.hops + 3.0 * oid_partitions - 1.0

    # -- per-strategy predictions ------------------------------------------------

    def predict_all(
        self,
        s: str,
        attribute: str,
        d: int,
        catalog: "StatisticsCatalog | None" = None,
    ) -> dict[str, CostPrediction]:
        """Predictions for every candidate strategy, keyed by value.

        One pass: the terms the strategies share are computed once.
        """
        terms = self._query_terms(s, attribute, d, catalog)
        return {
            value: self._evaluate(terms, strategy)
            for value, strategy in _CANDIDATES
        }

    def choose(
        self,
        s: str,
        attribute: str,
        d: int,
        catalog: "StatisticsCatalog | None" = None,
    ) -> StrategyDecision:
        """Resolve ``ADAPTIVE`` into the cheapest predicted strategy."""
        predictions = self.predict_all(s, attribute, d, catalog)
        # ``min`` keeps the first of equal keys: candidate order breaks ties.
        chosen = min(predictions.values(), key=_RANK).strategy
        return StrategyDecision(
            search=s,
            attribute=attribute,
            d=d,
            chosen=chosen,
            predictions=predictions,
        )

    # -- internals ----------------------------------------------------------------

    def _query_terms(self, s, attribute, d, catalog) -> _QueryTerms:
        stats = catalog.get(attribute) if catalog is not None else None
        shape = self._trie_shape()
        reach = self._reachable_fraction(attribute)
        matches = stats.estimate_similarity_rows(d) if stats is not None else 0.0
        if reach < 1.0:
            matches *= reach
        return _QueryTerms(
            s,
            d,
            stats,
            shape,
            shape.region(attribute),
            reach,
            matches,
            self._object_bytes(stats),
            stats.estimate_gram_postings() if stats is not None else 0.0,
            self._filter_selectivity(stats, s, d, self.network.config.q),
        )

    def _evaluate(
        self, terms: _QueryTerms, strategy: SimilarityStrategy
    ) -> CostPrediction:
        if strategy is SimilarityStrategy.NAIVE:
            return self._predict_naive(terms)
        return self._predict_gram(terms, strategy)

    def _object_bytes(self, stats) -> float:
        """Assumed payload of one reconstructed object."""
        mean_len = (
            stats.mean_string_length if stats is not None else 8.0
        ) or 8.0
        return TRIPLES_PER_OBJECT * (mean_len + TRIPLE_OVERHEAD_BYTES)

    def _predict_naive(self, terms: _QueryTerms) -> CostPrediction:
        s, stats, shape, reach = terms.s, terms.stats, terms.shape, terms.reach
        matches = terms.matches
        region = terms.region.size
        network_ms = terms.region.naive_network_ms
        if reach < 1.0:
            # Dark partitions receive no query copy and return no rows.
            region = max(1, round(region * reach))
            network_ms = shape.naive_network_ms(region)
        # Routed entry, shower forwards, one query copy per region peer,
        # one result return per matching partition, then the initiator's
        # batched object fetch.
        messages = (
            shape.hops
            + (region - 1)
            + region
            + min(region, matches)
            + self._fetch_messages(shape, matches)
        )
        payload = (
            region * (QUERY_HEADER_BYTES + len(s))
            + matches * (OID_BYTES + self._mean_value_len(stats, s) + 2)
            + matches * terms.object_bytes
        )
        # Replica-aware rows: only reachable partitions' rows take part.
        rows = (stats.row_count if stats is not None else 0) * reach
        per_peer = rows / region if region else 0.0
        latency = network_ms + self.latency_model.compute_time_ms(int(per_peer))
        return CostPrediction(
            SimilarityStrategy.NAIVE, messages, payload, latency
        )

    def _predict_gram(
        self, terms: _QueryTerms, strategy: SimilarityStrategy
    ) -> CostPrediction:
        s, d, stats, shape = terms.s, terms.d, terms.stats, terms.shape
        q = self.network.config.q
        gram_keys, gram_chars = gram_counts(
            s, q, d if strategy is SimilarityStrategy.QSAMPLE else None
        )
        gram_partitions = max(
            1.0, self._distinct_partitions(terms.region.size, gram_keys)
        )
        candidates = gram_keys * terms.postings * terms.selectivity
        if stats is not None:
            candidates = min(candidates, float(stats.row_count))
        if terms.reach < 1.0:
            # Unreachable gram partitions are skipped (degraded mode) and
            # contribute no postings; scale the fan-out and the
            # data-dependent terms by the live fraction.
            gram_partitions = max(1.0, gram_partitions * terms.reach)
            candidates *= terms.reach

        hops = shape.hops
        # Batched gram lookups: entry walk + forwards + one delegation per
        # contacted gram partition.
        messages = hops + 2.0 * gram_partitions - 1.0
        payload = gram_partitions * (QUERY_HEADER_BYTES + gram_chars)
        if candidates > 0:
            delegating = min(gram_partitions, candidates)
            oid_partitions = self._distinct_partitions(
                shape.n_partitions, candidates
            )
            # Each delegating gram peer runs one batched walk; delegation
            # messages are (gram peer, oid partition) pairs; only fresh
            # partitions answer.
            delegations = min(candidates, delegating * oid_partitions)
            messages += delegating * hops + delegations + oid_partitions
            payload += delegations * (QUERY_HEADER_BYTES + len(s) + OID_BYTES)
            payload += min(candidates, max(terms.matches, 1.0)) * terms.object_bytes
        dissemination = math.ceil(math.log2(max(2, gram_partitions))) + 1
        per_peer = candidates / gram_partitions if gram_partitions else 0.0
        latency = (
            self.latency_model.network_time_ms(shape.n_partitions, dissemination)
            + self.latency_model.compute_time_ms(math.ceil(per_peer))
        )
        return CostPrediction(strategy, messages, payload, latency)

    @staticmethod
    def _mean_value_len(stats, s: str) -> float:
        if stats is not None and stats.mean_string_length:
            return stats.mean_string_length
        return float(len(s))

    @staticmethod
    def _filter_selectivity(stats, s: str, d: int, q: int) -> float:
        """Fraction of a gram key's postings the position/length filters admit.

        Both filters are ``|gap| <= d`` windows: position over the
        extended string's ``L + q - 1`` gram slots, length over the value
        lengths.  Modelled as one shared window of width ``2d + 1`` over
        the positional slots — coarse, but monotone in ``d`` and
        vanishing for long values, which is what separates filtered gram
        scans from the naive everything-compares regime.
        """
        mean_len = StrategyCostModel._mean_value_len(stats, s)
        slots = max(1.0, mean_len + q - 1)
        return min(1.0, (2.0 * d + 1.0) / slots)
