"""The committed Figure 1 baseline satisfies the paper's claims.

``shape_check`` reads the message series of each dataset of
``benchmarks/BENCH_fig1.json``: naive outgrows q-grams, q-samples stay
at or below q-grams at scale, naive is the most expensive at scale, and
adaptive stays within 2x of the best fixed arm.  A regenerated baseline
that breaks one of them fails here; nothing is recomputed.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.core.config import SimilarityStrategy
from repro.core.stats import QueryStats
from evaluation.experiment import CellResult
from evaluation.report import shape_check
from evaluation.sweep import SweepResult

FIG1 = Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_fig1.json"

BASELINE = json.loads(FIG1.read_text())["datasets"]


def sweep_of(dataset: dict) -> SweepResult:
    """The message series of one committed dataset as a sweep."""
    return SweepResult(
        dataset["dataset"],
        [
            CellResult(
                cell["peers"],
                {
                    SimilarityStrategy.from_name(label): QueryStats(
                        messages=series["messages"]
                    )
                    for label, series in cell["strategies"].items()
                },
            )
            for cell in dataset["cells"]
        ],
    )


@pytest.mark.parametrize("name", ["bible", "titles"])
def test_committed_baseline_meets_the_claims(name):
    result = sweep_of(BASELINE[name])
    assert len(result.cells) >= 2
    assert SimilarityStrategy.ADAPTIVE in result.cells[0].by_strategy
    assert shape_check(result) == []


def test_naive_below_qsamples_at_scale_is_a_finding():
    dataset = copy.deepcopy(BASELINE["bible"])
    top = max(dataset["cells"], key=lambda cell: cell["peers"])
    assert top["peers"] == 8192
    strategies = top["strategies"]
    strategies["strings"]["messages"] = strategies["qsamples"]["messages"] - 1
    findings = shape_check(sweep_of(dataset))
    assert any("naive should be the most expensive" in f for f in findings)
