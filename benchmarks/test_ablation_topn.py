"""Ablation: top-N range estimation.

Algorithm 4's first probe is sized from local data density; load
balancing makes that estimate representative, so most queries should
finish in one or two range-query rounds.  This benchmark measures the
round distribution and the per-query message cost across N.
"""

import random

import pytest

from repro.core.config import RankFunction
from repro.query.operators.base import OperatorContext
from repro.query.operators.topn import top_n_numeric
from repro.storage.triple import Triple
from evaluation.experiment import build_network

from benchmarks.conftest import BENCH_CONFIG

ATTR = "reading:value"
PEERS = 256
VALUES = 3000


def _network():
    rng = random.Random(6)
    triples = [
        Triple(f"r:{i:05d}", ATTR, rng.gauss(500.0, 150.0)) for i in range(VALUES)
    ]
    return build_network(triples, PEERS, BENCH_CONFIG)


@pytest.mark.parametrize("n", [5, 10, 15])
def test_topn_round_efficiency(n):
    network = _network()
    ctx = OperatorContext(network)
    rng = random.Random(7)
    rounds = []
    messages = []
    for __ in range(10):
        network.tracer.reset()
        result = top_n_numeric(
            ctx, ATTR, n, RankFunction.NN, reference=rng.gauss(500.0, 150.0)
        )
        assert len(result.matches) == n
        rounds.append(result.rounds)
        messages.append(network.tracer.message_count)
    mean_rounds = sum(rounds) / len(rounds)
    print(
        f"\nN={n}: mean rounds={mean_rounds:.2f}, "
        f"mean messages={sum(messages) / len(messages):.1f}"
    )
    # Density estimation keeps probing short: three rounds on average
    # would mean the estimate is systematically off.
    assert mean_rounds <= 3.0
