"""The evaluation sits beside the ``repro`` package, not inside it, the
package holds only what runs, and every name has one import path."""

import ast
import functools
import importlib.util
import re
from collections import defaultdict
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
    """The query layer's distance checks go through a pooled verifier:
    only ``OperatorContext.make_verifier`` (``operators/base.py``) builds
    a ``BatchVerifier``, and the exact DP ``edit_distance`` computes
    nothing but the ``dist()`` value of a VQL row (``executor.py``)."""
    allowed = {"BatchVerifier": {"operators/base.py"}, "edit_distance": {"executor.py"}}
    offenders = sorted(
        (module, node.func.id)
        for path in sorted((PACKAGE / "query").rglob("*.py"))
        for module in [path.relative_to(PACKAGE / "query").as_posix()]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and module not in allowed.get(node.func.id, {module})
    )
    assert offenders == []


@functools.cache
def top_level_names(path: Path) -> set[str]:
    """Names a module defines at top level: functions, classes and
    assignment targets, not what it imports."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                leaf.id
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            )
    return names


def test_subpackages_reexport_nothing():
    """Every ``__init__.py`` under the package but the top-level facade's
    holds only its docstring: no imports, no ``__all__``."""
    offenders = [
        path.relative_to(PACKAGE).as_posix()
        for path in sorted(PACKAGE.rglob("__init__.py"))
        if path.parent != PACKAGE
        and [type(node) for node in ast.parse(path.read_text()).body] != [ast.Expr]
    ]
    assert offenders == []


def test_names_are_imported_from_their_module():
    """``from repro.x import name`` names a submodule of ``repro.x`` or
    something ``repro.x`` defines, never a name it only imports — the
    top-level facade ``repro`` aside."""
    offenders = []
    for root in (*USER_ROOTS, "tests"):
        for path in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (
                    isinstance(node, ast.ImportFrom)
                    and node.level == 0
                    and (node.module or "").startswith("repro.")
                ):
                    continue
                module = PACKAGE.joinpath(*node.module.split(".")[1:])
                source = module / "__init__.py"
                if not source.exists():
                    source = module.with_suffix(".py")
                defined = top_level_names(source)
                offenders.extend(
                    f"{path.relative_to(REPO).as_posix()}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name not in defined
                    and not (module / alias.name).is_dir()
                    and not (module / f"{alias.name}.py").exists()
                )
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
    "QueryEngine.sim_join": (
        "the facade of the paper's similarity join (Algorithm 3)"
    ),
    "Router.retrieve": (
        "Algorithm 1's Retrieve; tests use it as the lookup oracle the "
        "operators' fetch paths are checked against"
    ),
    "ChurnController.fail_peers": (
        "scripted failures of chosen peers, which the fault and "
        "memo-maintenance tests drive"
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


def name_uses(path: Path) -> list[tuple[str, str]]:
    """``(name, owner)`` for every name ``path`` reads or spells: names,
    attributes, and string constants that are identifiers (``getattr``)
    or ``module:Qualified.name`` paths.  ``owner`` is the qualified name
    of the innermost definition the mention sits in (``""`` at module
    level).  ``import`` statements and the strings of ``__all__`` are
    not uses: importing or listing a name runs nothing."""
    tree = ast.parse(path.read_text())
    docstrings = docstring_nodes(tree)
    uses = []
    stack: list[tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, owner = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            owner = f"{owner}.{node.name}" if owner else node.name
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        elif isinstance(node, ast.Name):
            uses.append((node.id, owner))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, owner))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            if node.value.isidentifier():
                uses.append((node.value, owner))
            elif match := QUALIFIED_PATH.match(node.value):
                uses.extend((name, owner) for name in match.group(1).split("."))
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return uses


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
    entries must all still exist.  A definition naming itself (a method
    that only forwards to a namesake, recursion, a default argument)
    does not count."""
    owners: dict[str, set[tuple[Path, str]]] = defaultdict(set)
    for root in USER_ROOTS:
        for path in (REPO / root).rglob("*.py"):
            if "tests" not in path.relative_to(REPO).parts:
                where = path.resolve()
                for name, owner in name_uses(path):
                    owners[name].add((where, owner))

    def named_outside(path: Path, qualified: str, name: str) -> bool:
        return any(
            where != path
            or (owner != qualified and not owner.startswith(qualified + "."))
            for where, owner in owners[name]
        )

    defined = [
        (path.resolve(), qualified, name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for qualified, name in definitions(path)
    ]
    assert set(KEPT_UNNAMED) <= {qualified for __, qualified, __ in defined}
    unnamed = [
        f"{path.relative_to(PACKAGE.parent).as_posix()}:{qualified}"
        for path, qualified, name in defined
        if not named_outside(path, qualified, name)
        and qualified not in KEPT_UNNAMED
        and qualified.split(".")[0] not in KEPT_UNNAMED
    ]
    assert unnamed == []
