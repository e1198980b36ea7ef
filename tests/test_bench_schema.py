"""Pins ``tools/check_bench_schema.py`` against the committed baselines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "check_bench_schema.py"
FIG1 = ROOT / "benchmarks" / "BENCH_fig1.json"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_bench_schema", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_baselines_validate(tool, capsys):
    assert tool.main([]) == 0
    capsys.readouterr()


def test_fig1_baseline_is_v5_without_sampling_fields():
    fig1 = json.loads(FIG1.read_text())
    assert fig1["schema"] == "repro-bench-fig1/v5"
    assert "naive_sample_rate" not in fig1["scale"]
    for dataset in fig1["datasets"].values():
        for cell in dataset["cells"]:
            assert "naive_sampled" not in cell


@pytest.mark.parametrize(
    "schema",
    ["repro-bench-fig1/v4", "repro-bench-micro/v3", "repro-bench-serve/v1"],
)
def test_fig1_v4_tag_is_unknown(tool, tmp_path, schema):
    """Retired schemas: fig1 v4, and the micro and serve baselines whose
    drivers were deleted."""
    fig1 = json.loads(FIG1.read_text())
    fig1["schema"] = schema
    path = tmp_path / "BENCH_fig1.json"
    path.write_text(json.dumps(fig1))
    problems = tool.check_file(path)
    assert len(problems) == 1
    assert "unknown schema" in problems[0]
