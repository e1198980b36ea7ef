"""Ablation: data-aware vs. uniform trie construction.

P-Grid balances partitions against the data distribution [2]; the paper
leans on this ("we achieve a reasonable uniform distribution of data
items among peers regardless of the actual data distribution").  This
ablation quantifies the difference on the order-preserved word corpus,
whose keys are anything but uniform.
"""

from repro.core.config import TrieBalancing
from evaluation.experiment import build_network
from repro.datasets.bible import bible_triples

from benchmarks.conftest import BENCH_CONFIG

CORPUS_SIZE = 2000
PEERS = 256


def _max_load_ratio(balancing: TrieBalancing) -> float:
    config = BENCH_CONFIG.replace(balancing=balancing)
    corpus = bible_triples(CORPUS_SIZE, seed=5)
    network = build_network(corpus, PEERS, config)
    loads = network.load_distribution()
    mean = sum(loads) / len(loads)
    return max(loads) / mean


def test_trie_balancing_ablation():
    data_aware = _max_load_ratio(TrieBalancing.DATA_AWARE)
    uniform = _max_load_ratio(TrieBalancing.UNIFORM)
    print(
        f"\nmax load / mean: data-aware={data_aware:.1f}, uniform={uniform:.1f}"
    )
    # The load-balanced trie beats the uniform split by a wide margin on
    # order-preserved text keys.
    assert data_aware < uniform / 2
