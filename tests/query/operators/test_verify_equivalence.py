"""Workload-level equivalence of the batched verification pipeline.

The perf overhaul (secondary indexes, batched verifier, shared verifier
pools) must not change a single match: on the bible-words and
painting-titles corpora, every strategy has to return exactly the
objects a seed-style per-candidate scan finds.  Distances are checked
too — the batched DP must agree with ``edit_distance_within`` value for
value, not only on the admitted set.
"""

import pytest

from repro.core.config import SimilarityStrategy
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.datasets.paintings import TITLE_ATTRIBUTE, painting_triples
from repro.query.operators.base import OperatorContext
from repro.overlay.incremental import PreparedDataset
from repro.query.operators.similar import similar
from repro.similarity.edit_distance import edit_distance_within
from repro.storage.qgrams import guaranteed_complete

from evaluation.experiment import build_network
from tests.conftest import StoreConfig

CONFIG = StoreConfig(seed=0, index_values=False, index_schema_grams=False)

WORKLOADS = {
    "bible": (bible_triples, TEXT_ATTRIBUTE, 300),
    "paintings": (painting_triples, TITLE_ATTRIBUTE, 150),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    maker, attribute, size = WORKLOADS[request.param]
    triples = maker(size, seed=0)
    network = build_network(triples, 64, CONFIG)
    queries = sorted({str(t.value) for t in triples})[::17][:8]
    return OperatorContext(network), triples, attribute, queries


def brute_force(triples, attribute, query, d):
    """Seed-style verification: one banded DP per stored (oid, value)."""
    best = {}
    for triple in triples:
        distance = edit_distance_within(query, str(triple.value), d)
        if distance <= d:
            previous = best.get(triple.oid)
            if previous is None or distance < previous:
                best[triple.oid] = distance
    return best


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "strategy",
    [
        SimilarityStrategy.QGRAM,
        SimilarityStrategy.QSAMPLE,
        SimilarityStrategy.NAIVE,
    ],
)
def test_match_sets_identical_to_brute_force(workload, strategy, d):
    ctx, triples, attribute, queries = workload
    for query in queries:
        result = similar(ctx, query, attribute, d, strategy=strategy)
        got = {m.oid: m.distance for m in result.matches}
        expected = brute_force(triples, attribute, query, d)
        if strategy is SimilarityStrategy.NAIVE or guaranteed_complete(
            len(query), ctx.config.q, d
        ):
            assert got == expected
        else:
            # Outside the q-gram guarantee only soundness must hold.
            assert set(got) <= set(expected)
            assert all(expected[oid] == dist for oid, dist in got.items())


def test_prepared_dataset_places_identically():
    """place_entries() must fill every store exactly like insert_triples()."""
    from repro.overlay.network import PGridNetwork

    triples = bible_triples(200, seed=1)
    prepared = PreparedDataset.prepare(triples, CONFIG)
    via_prepared = prepared.build_network(32)
    reference = PGridNetwork(32, CONFIG, sample_keys=prepared.sample_keys)
    reference.insert_triples(triples)
    assert via_prepared.total_entries() == reference.total_entries()
    for fast, slow in zip(via_prepared.peers, reference.peers):
        assert [e.key for e in fast.store] == [e.key for e in slow.store]
        assert list(fast.store) == list(slow.store)
