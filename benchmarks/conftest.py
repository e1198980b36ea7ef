"""Shared fixtures for the benchmark suite.

Figure-panel tests reuse one sweep per dataset, computed once per
session at a scale that keeps the whole suite in the seconds range.
``REPRO_FULL_SCALE=1`` (or ``python -m evaluation --full``) switches the
standalone harness to paper scale; these tests always run the
scaled-down configuration — the point here is shape verification, not
absolute numbers.

These shape tests run in tier-1 (``python -m pytest -x -q``); only the
churn-recovery tier (``test_fault.py``, marker ``fault_bench``) is
deselected by default (see ``benchmarks/README.md``).
"""

from __future__ import annotations

import pytest

from repro.core.config import StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.datasets.paintings import TITLE_ATTRIBUTE, painting_triples
from evaluation.sweep import SweepResult, sweep

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
