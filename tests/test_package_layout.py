"""The evaluation sits beside the ``repro`` package, not inside it."""

import ast
import importlib.util
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
EVALUATION = Path(__file__).resolve().parents[1] / "evaluation"


def imported_modules(path: Path) -> list[str]:
    """Every module an ``import`` statement of ``path`` names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module or "")
    return names


@pytest.mark.parametrize("name", ["repro.bench", "repro.simulation"])
def test_moved_packages_are_gone(name):
    assert importlib.util.find_spec(name) is None


def test_no_package_module_imports_the_evaluation():
    offenders = [
        path.relative_to(PACKAGE).as_posix()
        for path in sorted(PACKAGE.rglob("*.py"))
        if any(
            name.split(".")[0] == "evaluation"
            for name in imported_modules(path)
        )
    ]
    assert offenders == []


@pytest.mark.parametrize("root", [PACKAGE, EVALUATION], ids=["repro", "evaluation"])
def test_no_pool_process_or_thread(root):
    """Queries and sweeps run on one thread of one process."""
    banned = {"concurrent", "multiprocessing", "threading"}
    offenders = [
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        if banned & {name.split(".")[0] for name in imported_modules(path)}
    ]
    assert offenders == []
