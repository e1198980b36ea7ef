"""Simulated response times per strategy (discrete-event replay).

The paper defers latency measurements to a PlanetLab deployment; this
benchmark produces the simulated counterpart: each strategy's ``Similar``
queries are replayed through the happens-before log replay with
log-normal hop latencies, giving mean and p95 response times.

Expected orderings: the naive broadcast's dissemination chain through the
whole attribute region makes it the slowest despite decent message
counts; q-samples' smaller fan-out gives the shortest critical path.
(CPU time at peers is not replayed — adding it would only hurt naive
further; see ``evaluation.latency``.)
"""

import statistics

import pytest

from repro.core.config import SimilarityStrategy
from repro.query.operators.base import OperatorContext
from repro.query.operators.similar import similar
from evaluation.replay import LatencyDistribution, replay_operation
from evaluation.experiment import build_network
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples

from benchmarks.conftest import BENCH_CONFIG

CORPUS_SIZE = 800
PEERS = 512
MODEL = LatencyDistribution(median_ms=50.0, sigma=0.4, per_kb_ms=0.2)


@pytest.fixture(scope="module")
def setting():
    corpus = bible_triples(CORPUS_SIZE, seed=9)
    words = [str(t.value) for t in corpus]
    network = build_network(corpus, PEERS, BENCH_CONFIG)
    return network, words


def _latencies(network, words, strategy) -> list[float]:
    ctx = OperatorContext(network, strategy=strategy)
    times = []
    for index, word in enumerate(words[::60]):
        initiator = (index * 37) % network.n_peers
        __, timing = replay_operation(
            network,
            lambda w=word, i=initiator: similar(ctx, w, TEXT_ATTRIBUTE, 2, i),
            initiator,
            model=MODEL,
            seed=index,
        )
        times.append(timing.completion_ms)
    return times


@pytest.mark.parametrize(
    "strategy",
    [SimilarityStrategy.QSAMPLE, SimilarityStrategy.QGRAM, SimilarityStrategy.NAIVE],
)
def test_response_time_replay(setting, strategy):
    network, words = setting
    times = _latencies(network, words, strategy)
    mean = statistics.fmean(times)
    p95 = sorted(times)[int(0.95 * (len(times) - 1))]
    print(f"\n{strategy.value}: mean={mean:.0f} ms, p95={p95:.0f} ms")
    assert mean > 0


def test_naive_has_longest_critical_path(setting):
    network, words = setting
    naive = statistics.fmean(_latencies(network, words, SimilarityStrategy.NAIVE))
    qsample = statistics.fmean(
        _latencies(network, words, SimilarityStrategy.QSAMPLE)
    )
    assert naive > qsample
