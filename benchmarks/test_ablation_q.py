"""Ablation: the q-gram length q.

The paper fixes q = 3 (following Gravano et al.); this ablation sweeps q
over {2, 3, 4} and reports workload messages and storage amplification.
Smaller q means fewer, less selective grams (more candidates per gram);
larger q means more lookups and more storage but sharper filtering.
"""

import pytest

from repro.core.config import SimilarityStrategy
from repro.overlay.hashing import CompositeKeyCodec
from repro.query.operators.base import OperatorContext
from repro.storage.indexing import EntryFactory
from evaluation.experiment import build_network
from evaluation.workload import make_workload, run_workload
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples

from benchmarks.conftest import BENCH_CONFIG

CORPUS_SIZE = 600
PEERS = 256


def _workload_messages(q: int) -> tuple[int, float]:
    config = BENCH_CONFIG.replace(q=q)
    corpus = bible_triples(CORPUS_SIZE, seed=2)
    strings = [str(t.value) for t in corpus]
    network = build_network(corpus, PEERS, config)
    queries = make_workload(strings, network.n_peers, repetitions=1, seed=2)
    ctx = OperatorContext(network, strategy=SimilarityStrategy.QGRAM)
    stats = run_workload(ctx, TEXT_ATTRIBUTE, queries, SimilarityStrategy.QGRAM)
    factory = EntryFactory(config, CompositeKeyCodec(config))
    amplification = factory.storage_amplification(corpus[:200])
    return stats.messages, amplification


@pytest.mark.parametrize("q", [2, 3, 4])
def test_q_length_ablation(q):
    messages, amplification = _workload_messages(q)
    print(f"\nq={q}: messages={messages}, storage x{amplification:.2f}")
    assert messages > 0
    # Storage amplification grows with q (extension adds q-1 pads/side).
    assert amplification > q
