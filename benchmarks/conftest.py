"""Shared fixtures for the benchmark suite.

Figure-panel benchmarks reuse one sweep per dataset, computed once per
session at a scale that keeps the whole suite in the minutes range.
``REPRO_FULL_SCALE=1`` (or ``python -m evaluation --full``) switches the
standalone harness to paper scale; the pytest benchmarks always run the
scaled-down configuration — the point here is regression tracking and
shape verification, not absolute numbers.

Every test collected under ``benchmarks/`` carries the ``bench`` marker,
and the root ``pytest.ini`` deselects that marker by default: tier-1
(``python -m pytest -x -q``) stays fast, while ``python -m pytest
benchmarks -m bench`` runs this suite explicitly (see
``benchmarks/README.md``).
"""

from __future__ import annotations

import pytest

from repro.core.config import StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.datasets.paintings import TITLE_ATTRIBUTE, painting_triples
from evaluation.sweep import SweepResult, sweep


BENCH_DIR = __file__.rsplit("/", 1)[0]


def pytest_collection_modifyitems(items):
    """Mark everything in this directory as ``bench``.

    The hook sees the whole session's items, so filter to this
    directory's before marking.  Tests that already carry the
    ``fault_bench`` marker form their own tier and are left alone — a
    ``-m fault_bench`` run must not drag the figure sweeps in, nor the
    other way around.
    """
    for item in items:
        if not str(item.fspath).startswith(BENCH_DIR):
            continue
        if item.get_closest_marker("fault_bench") is not None:
            continue
        item.add_marker(pytest.mark.bench)

#: Scaled-down sweep parameters (see module docstring).
PEER_COUNTS = (64, 256, 1024)
WORD_COUNT = 1500
TITLE_COUNT = 700
REPETITIONS = 2

#: The bench harness drops the index families the workload never touches
#: (keyword values, schema grams) — matching ``python -m evaluation``.
BENCH_CONFIG = StoreConfig(seed=0, index_values=False, index_schema_grams=False)


@pytest.fixture(scope="session")
def bible_sweep() -> SweepResult:
    corpus = bible_triples(WORD_COUNT, seed=0)
    strings = [str(t.value) for t in corpus]
    return sweep(
        "bible", corpus, TEXT_ATTRIBUTE, strings,
        peer_counts=PEER_COUNTS, config=BENCH_CONFIG, repetitions=REPETITIONS,
    )


@pytest.fixture(scope="session")
def titles_sweep() -> SweepResult:
    corpus = painting_triples(TITLE_COUNT, seed=0)
    strings = [str(t.value) for t in corpus]
    return sweep(
        "titles", corpus, TITLE_ATTRIBUTE, strings,
        peer_counts=PEER_COUNTS, config=BENCH_CONFIG, repetitions=REPETITIONS,
    )
