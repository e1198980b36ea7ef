"""Pins ``tools/check_docs.py``: links resolve, no architecture
heading is titled after a change, the architecture names exactly the
reference twins that exist, it stays within its line cap, and the
source trees cite only documents that exist."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _docs_tree(root: Path, check_docs, architecture: str) -> None:
    for relative in check_docs.DOC_FILES:
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("# Title\n")
    (root / check_docs.ARCHITECTURE).write_text(architecture)


def test_the_repository_docs_pass(check_docs):
    assert check_docs.main(["check_docs", str(ROOT)]) == 0


@pytest.mark.parametrize(
    "heading", ["### Bulk load (PR 23)", "## Engine & cost model (PR 5) notes"]
)
def test_a_change_titled_heading_fails(tmp_path, check_docs, capsys, heading):
    _docs_tree(tmp_path, check_docs, f"# Architecture\n\n{heading}\n\nText.\n")
    assert check_docs.main(["check_docs", str(tmp_path)]) == 1
    assert "change-titled heading" in capsys.readouterr().err


def test_an_architecture_over_its_cap_fails(tmp_path, check_docs, capsys):
    cap = check_docs.ARCHITECTURE_MAX_LINES
    _docs_tree(tmp_path, check_docs, "# Architecture\n" + "Text.\n" * (cap - 1))
    assert check_docs.main(["check_docs", str(tmp_path)]) == 0
    _docs_tree(tmp_path, check_docs, "# Architecture\n" + "Text.\n" * cap)
    assert check_docs.main(["check_docs", str(tmp_path)]) == 1
    assert f"{cap + 1} lines, over the cap" in capsys.readouterr().err


def test_prose_may_name_a_change(tmp_path, check_docs):
    _docs_tree(
        tmp_path, check_docs, "# Architecture\n\n### Bulk load\n\nSince (PR 23).\n"
    )
    assert check_docs.main(["check_docs", str(tmp_path)]) == 0


def test_a_named_twin_that_does_not_exist_fails(tmp_path, check_docs, capsys):
    _docs_tree(
        tmp_path, check_docs,
        "# Architecture\n\nPinned by `tests/reference/gone.py`.\n",
    )
    assert check_docs.main(["check_docs", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "no such twin: tests/reference/gone.py" in err


def test_a_twin_the_architecture_never_names_fails(tmp_path, check_docs, capsys):
    twins = tmp_path / check_docs.REFERENCE_DIR
    twins.mkdir(parents=True)
    (twins / "kernel.py").write_text("")
    (twins / "__init__.py").write_text("")
    _docs_tree(tmp_path, check_docs, "# Architecture\n\nNo twins here.\n")
    assert check_docs.main(["check_docs", str(tmp_path)]) == 1
    assert "twin never named: tests/reference/kernel.py" in capsys.readouterr().err
    _docs_tree(
        tmp_path, check_docs,
        "# Architecture\n\nThe kernel's twin is `tests/reference/kernel.py`.\n",
    )
    assert check_docs.main(["check_docs", str(tmp_path)]) == 0


def test_a_cited_document_must_exist(tmp_path, check_docs, capsys):
    _docs_tree(tmp_path, check_docs, "# Architecture\n")
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text('"""See ``docs/ARCHITECTURE.md`` and ``README.md``."""\n')
    assert check_docs.main(["check_docs", str(tmp_path)]) == 0
    # Spelled in two pieces so this file cites no missing document itself.
    missing = "NOTES" + ".md"
    cited = tmp_path / "tests" / "test_mod.py"
    cited.parent.mkdir()
    cited.write_text(f"# Explained in {missing}.\n")
    assert check_docs.main(["check_docs", str(tmp_path)]) == 1
    assert f"tests/test_mod.py:1: no such document: {missing}" in (
        capsys.readouterr().err
    )


def test_a_numbered_roadmap_item_in_source_fails(tmp_path, check_docs, capsys):
    _docs_tree(tmp_path, check_docs, "# Architecture\n")
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text('"""The boundary the ROADMAP records, by subject."""\n')
    assert check_docs.main(["check_docs", str(tmp_path)]) == 0
    # Spelled in pieces so this file cites no numbered item itself.
    roadmap = "ROAD" + "MAP"
    module.write_text(f'"""See the\n{roadmap}\n    item 5 boundary."""\n')
    assert check_docs.main(["check_docs", str(tmp_path)]) == 1
    assert f"src/pkg/mod.py:2: numbered ROADMAP item: {roadmap} item 5" in (
        capsys.readouterr().err
    )
