"""Pins ``tools/check_bench_schema.py`` against the committed baselines."""

import importlib.util
import json
import re
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


def test_fig1_baseline_is_v7_without_removed_fields():
    fig1 = json.loads(FIG1.read_text())
    assert fig1["schema"] == "repro-bench-fig1/v7"
    assert "naive_sample_rate" not in fig1["scale"]
    assert "fanout" not in fig1["scale"]
    assert "jobs" not in fig1["scale"]
    for dataset in fig1["datasets"].values():
        for cell in dataset["cells"]:
            assert "naive_sampled" not in cell


@pytest.mark.parametrize(
    "schema",
    [
        "repro-bench-fig1/v4",
        "repro-bench-fig1/v5",
        "repro-bench-fig1/v6",
        "repro-bench-micro/v3",
        "repro-bench-serve/v1",
    ],
)
def test_fig1_v4_tag_is_unknown(tool, tmp_path, schema):
    """Retired schemas: fig1 v4 to v6, and the micro and serve baselines
    whose drivers were deleted."""
    fig1 = json.loads(FIG1.read_text())
    fig1["schema"] = schema
    path = tmp_path / "BENCH_fig1.json"
    path.write_text(json.dumps(fig1))
    problems = tool.check_file(path)
    assert len(problems) == 1
    assert "unknown schema" in problems[0]


def _key_paths(value, prefix="") -> set[str]:
    """Every key of a JSON value as a dotted path (``[]`` for list items)."""
    if isinstance(value, dict):
        paths = set()
        for key, item in value.items():
            paths |= {f"{prefix}{key}"} | _key_paths(item, f"{prefix}{key}.")
        return paths
    if isinstance(value, list) and value:
        return _key_paths(value[0], f"{prefix}[].")
    return set()


def test_readme_fault_block_is_the_written_shape(tool):
    """``benchmarks/README.md``'s ``BENCH_fault.json`` block, its type
    names read as values, validates as fault v1 and has exactly the key
    paths, schema and kind of the committed baseline."""
    readme = (ROOT / "benchmarks" / "README.md").read_text()
    section = readme.split("### `BENCH_fault.json`", 1)[1]
    block = section.split("```\n", 2)[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    text = "\n".join(lines)
    under_failure = text.split('"under_failure":', 1)[1]
    under_failure = under_failure[: under_failure.index("}") + 1]
    text = text.replace("{ ... same shape as under_failure ... }", under_failure)
    for name, example in (("int", "1"), ("float", "0.5"), ("bool", "true")):
        text = re.sub(rf"\b{name}\b", example, text)
    documented = json.loads(text)
    tool.check_fault_v1(documented)
    committed = json.loads((ROOT / "benchmarks" / "BENCH_fault.json").read_text())
    assert _key_paths(documented) == _key_paths(committed)
    for key in ("schema", "kind"):
        assert documented[key] == committed[key]
