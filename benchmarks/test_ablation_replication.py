"""Ablation: structural replication factor.

Replication multiplies storage but leaves query cost essentially flat —
lookups contact one live replica per partition.  This is the property
that makes P-Grid's fault tolerance cheap at query time (Section 2).
"""

import pytest

from repro.core.config import SimilarityStrategy
from repro.query.operators.base import OperatorContext
from evaluation.experiment import build_network
from evaluation.workload import make_workload, run_workload
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples

from benchmarks.conftest import BENCH_CONFIG

CORPUS_SIZE = 500
PEERS = 256


def _run(replication: int) -> tuple[int, int]:
    config = BENCH_CONFIG.replace(replication=replication)
    corpus = bible_triples(CORPUS_SIZE, seed=4)
    strings = [str(t.value) for t in corpus]
    network = build_network(corpus, PEERS, config)
    queries = make_workload(strings, network.n_peers, repetitions=1, seed=4)
    ctx = OperatorContext(network, strategy=SimilarityStrategy.QSAMPLE)
    stats = run_workload(ctx, TEXT_ATTRIBUTE, queries, SimilarityStrategy.QSAMPLE)
    return stats.messages, network.total_entries()


@pytest.mark.parametrize("replication", [1, 2, 4])
def test_replication_ablation(replication):
    messages, stored = _run(replication)
    print(f"\nk={replication}: messages={messages}, stored entries={stored}")
    base_messages, base_stored = _run(1)
    # Storage scales with k; query cost stays within a small factor.
    assert stored == pytest.approx(replication * base_stored, rel=0.01)
    assert messages < 3 * base_messages
