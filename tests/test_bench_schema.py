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
    tool.check(documented, tool.FAULT_V1)
    committed = json.loads((ROOT / "benchmarks" / "BENCH_fault.json").read_text())
    assert _key_paths(documented) == _key_paths(committed)
    for key in ("schema", "kind"):
        assert documented[key] == committed[key]


def _first(mapping: dict) -> str:
    return next(iter(mapping))


def _parent(data, path):
    """The container ``path[-1]`` names; a callable step picks a key from
    the mapping it is given."""
    for step in path[:-1]:
        data = data[step(data) if callable(step) else step]
    return data


def _set(path, value):
    return lambda data: _parent(data, path).__setitem__(path[-1], value)


def _drop(*path):
    return lambda data: _parent(data, path).__delitem__(path[-1])


#: ``(committed file, edit, the one problem it must cause)``: for each
#: baseline a dropped key, a wrong type, a bool where an int is due and,
#: where the schema has them, empty ``datasets``/``cells``.
REJECTIONS = [
    ("fig1", _drop("scale", "seed"), "scale: missing key 'seed'"),
    ("fig1", _set(["scale"], []), "$.scale: expected <class 'dict'>, got list"),
    (
        "fig1",
        _set(["datasets", _first, "cells", 0, "peers"], "8"),
        "datasets.bible.cells[0].peers: expected <class 'int'>, got str",
    ),
    (
        "fig1",
        _set(["datasets", _first, "cells", 0, "strategies", _first, "megabytes"], "1"),
        "datasets.bible.cells[0].strategies.qsamples.megabytes: expected "
        "(<class 'int'>, <class 'float'>), got str",
    ),
    ("fig1", _set(["scale", "words"], True), "scale.words: expected <class 'int'>, got bool"),
    ("fig1", _set(["scale", "peer_counts", 0], "8"), "scale.peer_counts"),
    ("fig1", _set(["datasets"], {}), "datasets: empty"),
    ("fig1", _set(["datasets", _first, "cells"], []), "datasets.bible.cells: empty"),
    ("fault", _drop("cells", 0, "repair"), "cells[0]: missing key 'repair'"),
    (
        "fault",
        _set(["scale", "drop_probability"], "0.05"),
        "scale.drop_probability: expected (<class 'int'>, <class 'float'>), got str",
    ),
    (
        "fault",
        _set(["cells", 0, "failed_peers"], True),
        "cells[0].failed_peers: expected <class 'int'>, got bool",
    ),
    ("fault", _set(["cells"], []), "cells: empty"),
    ("mutate", _drop("arms", "drop"), "arms: missing key 'drop'"),
    ("mutate", _drop("elapsed_seconds"), "$: missing key 'elapsed_seconds'"),
    (
        "mutate",
        _set(["recovery", "wall_seconds"], "1"),
        "recovery.wall_seconds: expected (<class 'int'>, <class 'float'>), got str",
    ),
    (
        "mutate",
        _set(["workload", "ops"], True),
        "workload.ops: expected <class 'int'>, got bool",
    ),
]


@pytest.mark.parametrize(
    ("name", "edit", "problem"),
    REJECTIONS,
    ids=[f"{name}-{problem.split(':')[0]}" for name, __, problem in REJECTIONS],
)
def test_an_edited_baseline_is_rejected(tool, tmp_path, name, edit, problem):
    committed = ROOT / "benchmarks" / f"BENCH_{name}.json"
    data = json.loads(committed.read_text())
    assert tool.check_file(committed) == []
    edit(data)
    path = tmp_path / committed.name
    path.write_text(json.dumps(data))
    (found,) = tool.check_file(path)
    assert found.startswith(f"{path}: [{data['schema']}] ")
    assert problem in found
