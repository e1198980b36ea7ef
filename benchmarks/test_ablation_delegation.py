"""Ablation: delegated vs. collected evaluation of Algorithm 2.

The paper implements delegation ("queries are delegated from the
initiating peer to the q-gram owning peers, which again delegate queries
to the oid owning peers") on top of the printed algorithm, which collects
gram hits at the initiator.  Collection enables the global count filter;
delegation avoids shipping raw gram hits.  This benchmark measures both
on the same corpus and workload slice.
"""

from repro.core.config import SimilarityStrategy
from repro.query.operators.base import OperatorContext
from repro.query.operators.collected import similar_collected
from repro.query.operators.similar import similar
from evaluation.experiment import build_network
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples

from benchmarks.conftest import BENCH_CONFIG

CORPUS_SIZE = 800
PEERS = 256


def _run(mode: str) -> tuple[int, int]:
    corpus = bible_triples(CORPUS_SIZE, seed=8)
    words = [str(t.value) for t in corpus]
    network = build_network(corpus, PEERS, BENCH_CONFIG)
    ctx = OperatorContext(network, strategy=SimilarityStrategy.QGRAM)
    messages = 0
    payload = 0
    for word in words[::80]:
        network.tracer.reset()
        if mode == "delegated":
            result = similar(ctx, word, TEXT_ATTRIBUTE, 2)
        else:
            result = similar_collected(ctx, word, TEXT_ATTRIBUTE, 2)
        assert any(m.matched == word for m in result.matches)
        messages += network.tracer.message_count
        payload += network.tracer.payload_bytes
    return messages, payload


def test_delegated_flow():
    messages, payload = _run("delegated")
    print(f"\ndelegated: messages={messages}, payload={payload}")


def test_collected_flow():
    messages, payload = _run("collected")
    print(f"\ncollected: messages={messages}, payload={payload}")
    assert messages > 0
