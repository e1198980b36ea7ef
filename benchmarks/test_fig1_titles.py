"""Figure 1(c)/(d): messages and data volume on the painting-titles corpus.

Long multi-word strings are where the q-gram strategies pay off (Section
6: "the costs of the string approach increase linear in the number of
peers and finally it is outperformed by both q-gram methods ... clearly
fortified by the results on the titles data").

Expected shapes (asserted): as in the bible panels, plus the qualitative
title-specific claim that ``qsamples`` beats the naive strategy by a wide
margin at the largest peer count.
"""

from repro.core.config import SimilarityStrategy
from repro.query.operators.base import OperatorContext
from evaluation.experiment import ALL_STRATEGIES, build_network
from evaluation.report import format_panel, shape_check
from evaluation.workload import make_workload, run_workload
from repro.datasets.paintings import TITLE_ATTRIBUTE, painting_triples

from benchmarks.conftest import BENCH_CONFIG


def test_fig1c_titles_messages(benchmark, titles_sweep):
    """Panel (c): total messages per workload vs. number of peers."""
    corpus = painting_triples(300, seed=1)
    strings = [str(t.value) for t in corpus]
    network = build_network(corpus, 256, BENCH_CONFIG)
    queries = make_workload(strings, network.n_peers, repetitions=1, seed=1)
    ctx = OperatorContext(network, strategy=SimilarityStrategy.QSAMPLE)

    def one_workload():
        network.tracer.reset()
        return run_workload(
            ctx, TITLE_ATTRIBUTE, queries, SimilarityStrategy.QSAMPLE
        ).messages

    benchmark.pedantic(one_workload, rounds=3, iterations=1)
    print()
    print(format_panel("fig1c", titles_sweep))
    for strategy in ALL_STRATEGIES:
        benchmark.extra_info[f"messages_{strategy.value}"] = (
            titles_sweep.message_series(strategy)
        )
    assert shape_check(titles_sweep) == []
    qsample = titles_sweep.message_series(SimilarityStrategy.QSAMPLE)
    naive = titles_sweep.message_series(SimilarityStrategy.NAIVE)
    assert naive[-1] > 3 * qsample[-1]


def test_fig1d_titles_volume(benchmark, titles_sweep):
    """Panel (d): total data volume (MB) per workload vs. number of peers."""
    corpus = painting_triples(300, seed=1)
    strings = [str(t.value) for t in corpus]
    network = build_network(corpus, 256, BENCH_CONFIG)
    queries = make_workload(strings, network.n_peers, repetitions=1, seed=1)
    ctx = OperatorContext(network, strategy=SimilarityStrategy.NAIVE)

    def one_workload():
        network.tracer.reset()
        return run_workload(
            ctx, TITLE_ATTRIBUTE, queries, SimilarityStrategy.NAIVE
        ).payload_bytes

    benchmark.pedantic(one_workload, rounds=3, iterations=1)
    print()
    print(format_panel("fig1d", titles_sweep))
    for strategy in ALL_STRATEGIES:
        benchmark.extra_info[f"megabytes_{strategy.value}"] = (
            titles_sweep.megabyte_series(strategy)
        )
    naive = titles_sweep.megabyte_series(SimilarityStrategy.NAIVE)
    qsample = titles_sweep.megabyte_series(SimilarityStrategy.QSAMPLE)
    assert naive[-1] > qsample[-1]
