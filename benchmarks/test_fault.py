"""Fault-tier benchmark: churn-recovery sweep vs the committed baseline.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_fault.py -m
fault_bench``.  The sweep is fully seeded, so the regenerated payload
must equal the committed ``BENCH_fault.json`` except for wall-clock
fields; shape assertions pin the robustness story (degradation is
monotone in the failure fraction, repair always restores consistency).
"""

from __future__ import annotations

import json
import os

import pytest

from evaluation.fault import FAULT_SCHEMA, run_fault_bench

pytestmark = pytest.mark.fault_bench

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_fault.json")


@pytest.fixture(scope="module")
def payload() -> dict:
    return run_fault_bench()


@pytest.fixture(scope="module")
def baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def _strip_wall_time(document: dict) -> dict:
    stripped = dict(document)
    stripped.pop("elapsed_seconds", None)
    return stripped


def test_schema(payload):
    assert payload["schema"] == FAULT_SCHEMA
    assert payload["kind"] == "fault_bench"
    scale = payload["scale"]
    for field in ("words", "peers", "replication", "queries",
                  "drop_probability", "fractions", "seed"):
        assert field in scale
    assert len(payload["cells"]) == len(scale["fractions"])
    for cell in payload["cells"]:
        for field in ("fail_fraction", "failed_peers", "dark_partitions",
                      "under_failure", "repair", "consistent_after_repair",
                      "post_repair"):
            assert field in cell
        for field in ("success_rate", "mean_completeness", "retry_messages",
                      "failover_messages", "dropped_candidates",
                      "simulated_latency"):
            assert field in cell["under_failure"]
        for field in ("entries_copied", "messages", "payload_bytes"):
            assert field in cell["repair"]


def test_matches_committed_baseline(payload, baseline):
    """The sweep is deterministic: regenerating must reproduce the file."""
    assert _strip_wall_time(payload) == _strip_wall_time(baseline)


def test_repair_restores_consistency(payload):
    for cell in payload["cells"]:
        assert cell["consistent_after_repair"], cell["fail_fraction"]
        # Divergence only exists after actual churn, and repair must have
        # copied at least one entry whenever the audit found any.
        if cell["divergent_partitions_before_repair"]:
            assert cell["repair"]["entries_copied"] > 0
            assert cell["repair"]["messages"] > 0


def test_degradation_shape(payload):
    """Success and completeness fall (weakly) as the failure fraction grows."""
    cells = payload["cells"]
    assert cells[0]["fail_fraction"] == 0.0
    under0 = cells[0]["under_failure"]
    assert under0["success_rate"] == 1.0
    assert under0["mean_completeness"] == 1.0
    assert under0["dark_partitions_seen"] == 0
    success = [c["under_failure"]["success_rate"] for c in cells]
    completeness = [c["under_failure"]["mean_completeness"] for c in cells]
    assert success == sorted(success, reverse=True)
    assert completeness == sorted(completeness, reverse=True)
    # Hard partition loss at the top of the sweep must actually show up
    # as partial answers, not exceptions.
    assert cells[-1]["dark_partitions"] > 0
    assert cells[-1]["under_failure"]["success_rate"] < 1.0


def test_post_repair_recovers(payload):
    """After recover + repair + clear_faults the mix runs clean again."""
    for cell in payload["cells"]:
        post = cell["post_repair"]
        assert post["success_rate"] == 1.0
        assert post["retry_messages"] == 0
        assert post["failover_messages"] == 0
        assert post["dropped_candidates"] == 0
        # The healed network answers at least as fully as the degraded one.
        assert post["matches"] >= cell["under_failure"]["matches"]


def test_retry_overhead_charged(payload):
    """A lossy plan shows up as nonzero retry traffic in every cell."""
    for cell in payload["cells"]:
        assert cell["under_failure"]["retry_messages"] > 0
