"""Kernel parity: verification kernels change wall-clock, never a series.

One fixed query mix on one small bible network — every physical
similarity strategy plus adaptive at ``d`` 1..3, and a string top-N —
runs once per kernel: the banded-DP twin of ``tests/reference/kernel.py``,
Myers without its numpy prefilter, and the default kernel (Myers with
the prefilter when numpy is importable).  Matches, message counts,
payload bytes and the per-type and per-phase breakdowns must be
identical.  Engines are pinned to a kernel by patching the pool they
build (``tests/reference/kernel.py``).  The ``kernel-parity`` CI job runs
this file with numpy and again after uninstalling it.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.engine import QueryEngine
from tests.reference.kernel import (
    ReferenceKernel,
    engines_verify_with,
    numpy_free_myers,
)

CORPUS = bible_triples(300, seed=0)
WORDS = sorted({str(triple.value) for triple in CORPUS})
#: Stored words and near misses: one character dropped, one doubled.
SEARCHES = [
    word
    for stored in WORDS[::60]
    for word in (stored, stored[1:], stored + stored[-1])
]
STRATEGIES = [
    SimilarityStrategy.NAIVE,
    SimilarityStrategy.QGRAM,
    SimilarityStrategy.QSAMPLE,
    SimilarityStrategy.ADAPTIVE,
]


def series(kernel):
    """What the mix measured under ``kernel`` (``None``: the default)."""
    if kernel is None:
        engine = QueryEngine.build(32, CORPUS, StoreConfig(seed=3))
    else:
        with engines_verify_with(kernel):
            engine = QueryEngine.build(32, CORPUS, StoreConfig(seed=3))
    engine.analyze([TEXT_ATTRIBUTE])
    out = []

    def record(result):
        cost = engine.last_cost()
        out.append((
            [(m.oid, m.matched, m.distance) for m in result.matches],
            cost.messages, cost.payload_bytes, cost.by_type, cost.by_phase,
        ))

    for strategy in STRATEGIES:
        for d in (1, 2, 3):
            for search in SEARCHES:
                record(engine.similar(search, TEXT_ATTRIBUTE, d, strategy))
    record(engine.top_n_string(TEXT_ATTRIBUTE, SEARCHES[1], 5))
    return engine.verifier_pool.kernel.name, out


@pytest.fixture(scope="module")
def default_series():
    return series(None)


@pytest.mark.parametrize(
    "kernel", [ReferenceKernel(), numpy_free_myers()], ids=["reference", "myers"]
)
def test_kernel_measures_what_the_default_measures(kernel, default_series):
    name, measured = series(kernel)
    assert name == kernel.name
    assert measured == default_series[1]


def test_mix_finds_matches(default_series):
    __, measured = default_series
    assert sum(len(matches) for matches, *__ in measured) > len(measured)
    assert measured[-1][0]  # the top-N answered
