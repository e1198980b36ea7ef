"""Pins ``tools/check_docs.py``: links resolve and no architecture
heading is titled after a change."""

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


def test_prose_may_name_a_change(tmp_path, check_docs):
    _docs_tree(
        tmp_path, check_docs, "# Architecture\n\n### Bulk load\n\nSince (PR 23).\n"
    )
    assert check_docs.main(["check_docs", str(tmp_path)]) == 0
