"""Figure 1(a)/(b): messages and data volume on the bible-words corpus.

Regenerates the paper's two bible-words panels: the same 6-query mix
(top-N N=5/10/15 with d<=5, anchored self sim-joins d=1/2/3), swept over
peer counts, once per strategy.  The benchmark clock times one workload
execution of the cheapest strategy at the middle peer count; the panel
series ride along in ``extra_info`` and are printed for inspection.

Expected shapes (asserted):
* naive ``strings`` grows faster with the peer count than ``qgrams``;
* ``strings`` is the most expensive strategy at the largest peer count;
* ``qsamples`` costs at most ``qgrams`` at the largest peer count.
"""

from repro.core.config import SimilarityStrategy
from repro.query.operators.base import OperatorContext
from evaluation.experiment import ALL_STRATEGIES, build_network
from evaluation.report import format_panel, shape_check
from evaluation.workload import make_workload, run_workload
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples

from benchmarks.conftest import BENCH_CONFIG


def test_fig1a_bible_messages(benchmark, bible_sweep):
    """Panel (a): total messages per workload vs. number of peers."""
    corpus = bible_triples(400, seed=1)
    strings = [str(t.value) for t in corpus]
    network = build_network(corpus, 256, BENCH_CONFIG)
    queries = make_workload(strings, network.n_peers, repetitions=1, seed=1)
    ctx = OperatorContext(network, strategy=SimilarityStrategy.QSAMPLE)

    def one_workload():
        network.tracer.reset()
        return run_workload(
            ctx, TEXT_ATTRIBUTE, queries, SimilarityStrategy.QSAMPLE
        ).messages

    benchmark.pedantic(one_workload, rounds=3, iterations=1)
    print()
    print(format_panel("fig1a", bible_sweep))
    for strategy in ALL_STRATEGIES:
        benchmark.extra_info[f"messages_{strategy.value}"] = (
            bible_sweep.message_series(strategy)
        )
    assert shape_check(bible_sweep) == []


def test_fig1b_bible_volume(benchmark, bible_sweep):
    """Panel (b): total data volume (MB) per workload vs. number of peers."""
    corpus = bible_triples(400, seed=1)
    strings = [str(t.value) for t in corpus]
    network = build_network(corpus, 256, BENCH_CONFIG)
    queries = make_workload(strings, network.n_peers, repetitions=1, seed=1)
    ctx = OperatorContext(network, strategy=SimilarityStrategy.QGRAM)

    def one_workload():
        network.tracer.reset()
        return run_workload(
            ctx, TEXT_ATTRIBUTE, queries, SimilarityStrategy.QGRAM
        ).payload_bytes

    benchmark.pedantic(one_workload, rounds=3, iterations=1)
    print()
    print(format_panel("fig1b", bible_sweep))
    naive = bible_sweep.megabyte_series(SimilarityStrategy.NAIVE)
    for strategy in ALL_STRATEGIES:
        benchmark.extra_info[f"megabytes_{strategy.value}"] = (
            bible_sweep.megabyte_series(strategy)
        )
    # Naive data volume grows with N (it ships the query to every region
    # peer and compares everything locally).
    assert naive[-1] > naive[0]
