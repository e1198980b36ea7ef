"""Reference: the strategy cost model, one strategy and one walk at a time.

Every prediction recomputes everything it needs: the trie's structural
terms (routing depth, region size) from the live partition table, the
replica reachability from the peers, and the query's gram fan-out by
tokenizing it with :func:`~repro.storage.qgrams.qgram_sample` and
:func:`~repro.storage.qgrams.positional_qgrams` and counting the gram
objects.  :func:`predict_all` calls :func:`predict` once per candidate
strategy.  This is the ground truth that
:class:`repro.query.cost.StrategyCostModel` — counted grams, structural
terms kept per trie shape, one pass per decision — is property-tested
against for bit-identical predictions.
"""

from __future__ import annotations

import math

from repro.core.config import SimilarityStrategy
from repro.core.errors import ExecutionError
from repro.query.cost import (
    CANDIDATE_STRATEGIES,
    OID_BYTES,
    QUERY_HEADER_BYTES,
    TRIPLE_OVERHEAD_BYTES,
    TRIPLES_PER_OBJECT,
    CostPrediction,
    LatencyModel,
)
from repro.storage.qgrams import positional_qgrams, qgram_sample


class ReferenceCostModel:
    """Per-strategy predictions, every term recomputed on every call."""

    def __init__(self, network):
        self.network = network
        self.latency_model = LatencyModel()

    def predict_all(self, s, attribute, d, catalog=None):
        return {
            strategy.value: self.predict(s, attribute, d, strategy, catalog)
            for strategy in CANDIDATE_STRATEGIES
        }

    def choose(self, s, attribute, d, catalog=None):
        """``(chosen strategy, predictions)`` — the adaptive resolution."""
        predictions = self.predict_all(s, attribute, d, catalog)
        chosen = min(
            CANDIDATE_STRATEGIES,
            key=lambda strategy: (
                predictions[strategy.value].messages,
                predictions[strategy.value].payload_bytes,
            ),
        )
        return chosen, predictions

    def predict(self, s, attribute, d, strategy, catalog=None):
        stats = catalog.get(attribute) if catalog is not None else None
        if strategy is SimilarityStrategy.NAIVE:
            return self._predict_naive(s, attribute, d, stats)
        if strategy in (SimilarityStrategy.QGRAM, SimilarityStrategy.QSAMPLE):
            return self._predict_gram(s, attribute, d, strategy, stats)
        raise ExecutionError(f"cannot predict cost of strategy {strategy}")

    # -- structural terms, from the live partition table --------------------------

    def _route_hops(self):
        return 0.5 * math.log2(max(2, self.network.n_partitions))

    def _region_size(self, attribute):
        if attribute == "":
            return self.network.n_partitions
        lo, hi = self.network.partition_span(
            self.network.codec.attr_prefix(attribute)
        )
        return max(1, hi - lo)

    def _reachable_fraction(self, attribute):
        if not self.network.ledger.offline:
            return 1.0
        if attribute == "":
            partitions = self.network.partitions
        else:
            prefix = self.network.codec.attr_prefix(attribute)
            partitions = self.network.partitions_under(prefix)
        if not partitions:
            return 1.0
        live = sum(
            1
            for partition in partitions
            if any(
                self.network.peer(peer_id).online
                for peer_id in partition.peer_ids
            )
        )
        return live / len(partitions)

    @staticmethod
    def _distinct_partitions(partitions, keys):
        if partitions <= 0 or keys <= 0:
            return 0.0
        return partitions * (1.0 - (1.0 - 1.0 / partitions) ** keys)

    def _fetch_messages(self, objects):
        if objects <= 0:
            return 0.0
        oid_partitions = self._distinct_partitions(
            self.network.n_partitions, objects
        )
        return self._route_hops() + 3.0 * oid_partitions - 1.0

    # -- data terms -------------------------------------------------------------

    def _expected_matches(self, stats, d):
        return stats.estimate_similarity_rows(d) if stats is not None else 0.0

    def _object_bytes(self, stats):
        mean_len = (
            stats.mean_string_length if stats is not None else 8.0
        ) or 8.0
        return TRIPLES_PER_OBJECT * (mean_len + TRIPLE_OVERHEAD_BYTES)

    @staticmethod
    def _mean_value_len(stats, s):
        if stats is not None and stats.mean_string_length:
            return stats.mean_string_length
        return float(len(s))

    @staticmethod
    def _filter_selectivity(stats, s, d, q):
        mean_len = ReferenceCostModel._mean_value_len(stats, s)
        slots = max(1.0, mean_len + q - 1)
        return min(1.0, (2.0 * d + 1.0) / slots)

    # -- the two formulas ---------------------------------------------------------

    def _predict_naive(self, s, attribute, d, stats):
        region = self._region_size(attribute)
        matches = self._expected_matches(stats, d)
        reach = self._reachable_fraction(attribute)
        if reach < 1.0:
            region = max(1, round(region * reach))
            matches *= reach
        hops = self._route_hops()
        messages = (
            hops
            + (region - 1)
            + region
            + min(region, matches)
            + self._fetch_messages(matches)
        )
        payload = (
            region * (QUERY_HEADER_BYTES + len(s))
            + matches * (OID_BYTES + self._mean_value_len(stats, s) + 2)
            + matches * self._object_bytes(stats)
        )
        rows = (stats.row_count if stats is not None else 0) * reach
        per_peer = rows / region if region else 0.0
        latency = (
            self.latency_model.network_time_ms(
                self.network.n_partitions, math.ceil(math.log2(max(2, region)))
            )
            + self.latency_model.compute_time_ms(int(per_peer))
        )
        return CostPrediction(
            SimilarityStrategy.NAIVE, messages, payload, latency
        )

    def _predict_gram(self, s, attribute, d, strategy, stats):
        q = self.network.config.q
        if strategy is SimilarityStrategy.QSAMPLE:
            grams = qgram_sample(s, q, d)
        else:
            grams = positional_qgrams(s, q)
        gram_keys = len({gram.gram for gram in grams})
        region = self._region_size(attribute)
        gram_partitions = max(
            1.0, self._distinct_partitions(region, gram_keys)
        )
        postings = stats.estimate_gram_postings() if stats is not None else 0.0
        candidates = gram_keys * postings * self._filter_selectivity(stats, s, d, q)
        if stats is not None:
            candidates = min(candidates, float(stats.row_count))
        matches = self._expected_matches(stats, d)
        reach = self._reachable_fraction(attribute)
        if reach < 1.0:
            gram_partitions = max(1.0, gram_partitions * reach)
            candidates *= reach
            matches *= reach

        hops = self._route_hops()
        messages = hops + 2.0 * gram_partitions - 1.0
        payload = gram_partitions * (
            QUERY_HEADER_BYTES + sum(len(gram.gram) for gram in grams)
        )
        if candidates > 0:
            delegating = min(gram_partitions, candidates)
            oid_partitions = self._distinct_partitions(
                self.network.n_partitions, candidates
            )
            delegations = min(candidates, delegating * oid_partitions)
            messages += delegating * hops + delegations + oid_partitions
            payload += delegations * (QUERY_HEADER_BYTES + len(s) + OID_BYTES)
            payload += min(candidates, max(matches, 1.0)) * self._object_bytes(
                stats
            )
        dissemination = math.ceil(math.log2(max(2, gram_partitions))) + 1
        per_peer = candidates / gram_partitions if gram_partitions else 0.0
        latency = (
            self.latency_model.network_time_ms(
                self.network.n_partitions, dissemination
            )
            + self.latency_model.compute_time_ms(math.ceil(per_peer))
        )
        return CostPrediction(strategy, messages, payload, latency)
