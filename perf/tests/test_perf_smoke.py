"""Tier-1 smoke of the benchmark itself, at ``--scale tiny``.

Keeps ``BENCHMARK.json`` and the code in step, and checks the tracer's
two promises: it leaves no trace, and a boundary that no longer resolves
is reported, not fatal.  It deliberately does *not* assert that every
declared boundary still resolves — ``src/`` may rename them.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from perf import metrics, worker
from perf.layers import LAYERS, make_tracer
from perf.paths import ROOT, child_env

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_declares_what_the_code_emits():
    assert SPEC["paths"] == ["perf"]
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == metrics.END_TO_END
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == metrics.PER_LAYER
    assert "setup_s" in metrics.END_TO_END
    for name in [*metrics.END_TO_END, *metrics.PER_LAYER, *WORKLOADS]:
        assert NAME.fullmatch(name), name
    for layer in LAYERS:
        for suffix in ("calls_per_op", "self_ms_per_op", "self_share"):
            assert f"{layer}.{suffix}" in metrics.PER_LAYER


def _spec(workload: str, trace: bool) -> dict:
    return {
        "workload": workload, "seed": 7, "repeat": 0, "seconds": 0.3,
        "scale": "tiny", "trace": trace,
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload):
    untraced = worker.run(_spec(workload, trace=False))
    values = metrics.end_to_end([untraced])
    assert set(values) == set(metrics.END_TO_END)
    assert all(value > 0 for value in values.values()), values
    assert untraced["failed"] == 0
    assert untraced["oracle_checked"] > 0

    traced = worker.run(_spec(workload, trace=True))
    assert traced["failed"] == 0
    assert traced["unrestored"] == []
    values = metrics.per_layer(traced["trace"], traced["attempted"], 0)
    assert set(values) == set(metrics.PER_LAYER)
    shares = [values[f"{layer}.self_share"] for layer in LAYERS]
    driver = metrics.driver_share(values)
    # Self times are disjoint pieces of the traced operation time, so the
    # layers can never claim more than all of it.
    assert all(share >= 0 for share in shares)
    assert 0 <= driver < 0.5
    assert sum(shares) + driver == pytest.approx(1.0)
    assert values["trace.overhead_share"] > -0.5
    assert not any(b["status"] != "ok" and b["calls"] for b in traced["trace"]["boundaries"])


def test_driver_mode_prints_one_json_result_line():
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", "large_overlay",
         "--seed", "3", "--seconds", "0.3", "--trace", "0", "--scale", "tiny",
         "--repeats", "1"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == metrics.END_TO_END


def test_tracer_leaves_no_trace_and_tolerates_missing_boundaries():
    import repro.overlay.hashing as hashing
    import repro.query.executor as executor
    import repro.query.planner as planner

    table = {
        "overlay.hashing": (
            "repro.overlay.hashing:uniform_key",
            "repro.overlay.hashing:no_such_function",
            "repro.overlay.hashing:CompositeKeyCodec.no_such_method",
        ),
        "query.planner": ("repro.query.planner:plan",),
        "gone": ("repro.no_such_module:anything",),
    }
    original_key, original_plan = hashing.uniform_key, planner.plan
    oid_key_before = hashing.CompositeKeyCodec.oid_key
    tracer = make_tracer(table)
    missing = {b.target for b in tracer.boundaries if b.missing}
    assert missing == {
        "repro.overlay.hashing:no_such_function",
        "repro.overlay.hashing:CompositeKeyCodec.no_such_method",
        "repro.no_such_module:anything",
    }
    with tracer:
        # ``executor`` imported ``plan`` by value under another name: patching
        # the defining module alone would have missed it.
        assert executor.build_plan is not original_plan
        assert executor.build_plan is planner.plan
        assert hashing.uniform_key("oid", 16) == original_key("oid", 16)
    assert hashing.uniform_key is original_key
    assert planner.plan is original_plan and executor.build_plan is original_plan
    assert hashing.CompositeKeyCodec.oid_key is oid_key_before
    assert tracer.unrestored() == []

    window = tracer.snapshot()
    rows = {row["boundary"]: row for row in tracer.report(window)}
    assert rows["repro.overlay.hashing:uniform_key"]["calls"] == 1
    for target in missing:
        assert rows[target]["status"] == "boundary_missing"
        assert rows[target]["calls"] == 0
    assert tracer.layer_totals(window)["gone"] == {
        "calls": 0, "self_ns": 0, "missing": 1,
    }
