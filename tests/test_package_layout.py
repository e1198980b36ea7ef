"""The evaluation sits beside the ``repro`` package, not inside it, and
the package holds only what runs."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]
EVALUATION = REPO / "evaluation"


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


def test_query_layer_verifies_through_the_verifier():
    """The query layer's distance checks go through a pooled verifier
    (``OperatorContext.make_verifier``), not the pure-python banded DP."""
    offenders = [
        path.relative_to(PACKAGE).as_posix()
        for path in sorted((PACKAGE / "query").rglob("*.py"))
        if any(
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "edit_distance_within" for alias in node.names)
            or isinstance(node, ast.Attribute)
            and node.attr == "edit_distance_within"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    ]
    assert offenders == []


#: Where a definition under ``src/`` may be named for it to count as
#: running: the package itself and every program built on it.  Tests
#: are left out on purpose — a definition only a test calls belongs in
#: the test, or under ``tests/reference/`` when a twin uses it.
USER_ROOTS = ("src", "evaluation", "perf", "tools", "examples", "benchmarks")

#: Definitions kept although nothing in :data:`USER_ROOTS` names them.
#: A class entry covers its methods too.
KEPT_UNNAMED = {
    "MembershipManager": (
        "P-Grid membership (joins and leaves of peers); the planned "
        "churn and replica-placement work builds on it"
    ),
    "PGridNetwork.insert_triples": (
        "tests write through it behind the engine's back, to check that "
        "the engine notices writes it did not make"
    ),
    "QueryEngine.similar_numeric": (
        "the facade of the paper's numeric similarity operator"
    ),
}

#: A ``module:Qualified.name`` string, as ``perf/layers.py`` names the
#: callables it wraps.
QUALIFIED_PATH = re.compile(r"^[\w.]+:([\w.]+)$")


def docstring_nodes(tree: ast.AST) -> set[int]:
    """Ids of the docstring constants of ``tree``: prose, not names."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                ids.add(id(body[0].value))
    return ids


def names_used(path: Path) -> set[str]:
    """Every name ``path`` reads or spells: names, attributes, and string
    constants that are identifiers (``getattr``, ``__all__``) or
    ``module:Qualified.name`` paths.  ``import`` statements do not count:
    importing a name without using it runs nothing."""
    tree = ast.parse(path.read_text())
    docstrings = docstring_nodes(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            if node.value.isidentifier():
                names.add(node.value)
            elif match := QUALIFIED_PATH.match(node.value):
                names.update(match.group(1).split("."))
    return names


def definitions(path: Path):
    """``(qualified name, name)`` of every top-level function and class
    of ``path`` and of every method of those classes, dunders aside."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def test_src_defines_only_what_runs():
    """Every definition under ``src/`` is named by some program that
    runs — the package, the evaluation, the benchmark, the tools, the
    examples — or is kept on purpose in :data:`KEPT_UNNAMED`, whose
    entries must all still exist."""
    used: set[str] = set()
    for root in USER_ROOTS:
        for path in (REPO / root).rglob("*.py"):
            if "tests" not in path.relative_to(REPO).parts:
                used |= names_used(path)
    defined = [
        (path.relative_to(PACKAGE.parent).as_posix(), qualified, name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for qualified, name in definitions(path)
    ]
    assert set(KEPT_UNNAMED) <= {qualified for __, qualified, __ in defined}
    unnamed = [
        f"{where}:{qualified}"
        for where, qualified, name in defined
        if name not in used
        and qualified not in KEPT_UNNAMED
        and qualified.split(".")[0] not in KEPT_UNNAMED
    ]
    assert unnamed == []
