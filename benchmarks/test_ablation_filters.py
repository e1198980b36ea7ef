"""Ablation: the position + length filters of Algorithm 2, line 8.

The filters run at the gram-owning peers, pruning candidates *before*
they are delegated over the network.  Turning them off must never change
results (the final edit-distance check is the referee) but must increase
candidate traffic.
"""

from repro.core.config import SimilarityStrategy
from repro.query.operators.base import OperatorContext
from repro.query.operators.similar import similar
from repro.similarity.filters import FilterConfig
from evaluation.experiment import build_network
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples

from benchmarks.conftest import BENCH_CONFIG

CORPUS_SIZE = 800
PEERS = 256


def _run(filters: FilterConfig) -> tuple[int, int]:
    corpus = bible_triples(CORPUS_SIZE, seed=3)
    words = [str(t.value) for t in corpus]
    network = build_network(corpus, PEERS, BENCH_CONFIG)
    ctx = OperatorContext(
        network, strategy=SimilarityStrategy.QGRAM, filters=filters
    )
    messages = 0
    candidates = 0
    for word in words[::100]:
        network.tracer.reset()
        result = similar(ctx, word, TEXT_ATTRIBUTE, 2)
        messages += network.tracer.message_count
        candidates += result.candidates_after_filters
    return messages, candidates


def test_filters_on():
    messages, candidates = _run(FilterConfig())
    print(f"\nfilters on:  messages={messages}, candidates={candidates}")


def test_filters_off():
    on_messages, on_candidates = _run(FilterConfig())
    messages, candidates = _run(
        FilterConfig(use_position=False, use_length=False)
    )
    print(f"\nfilters off: messages={messages}, candidates={candidates}")
    assert candidates >= on_candidates
    assert messages >= on_messages
