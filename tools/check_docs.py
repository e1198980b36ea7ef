#!/usr/bin/env python3
"""Documentation checker (stdlib only; the CI docs job runs it).

Scans the repository's markdown documentation for relative links and
verifies every target exists.  External links (``http(s)://``,
``mailto:``) are skipped — CI must not depend on network reachability —
and intra-page anchors (``#...``) are checked only for non-emptiness.
``docs/ARCHITECTURE.md`` describes the system as it is, so none of its
headings may be titled after the change that introduced a part of it
(``(PR n)``), every ``tests/reference/...`` path it names must exist,
it must name every reference twin (each ``tests/reference/*.py``), and
it may not grow past :data:`ARCHITECTURE_MAX_LINES`.  A ``.py`` file
under :data:`SOURCE_DIRS` may not cite a ``*.md`` document that does
not exist (at the repository root or beside the file), nor a numbered
ROADMAP item: items are renumbered at every re-anchor, so code names
the subject and the test that pins it instead.

Usage::

    python tools/check_docs.py [repo_root]

Exit status 0 when every link resolves, no heading is change-titled,
the twins check out, the architecture is within its cap, every cited
document exists and no source file cites a ROADMAP item by number, 1
otherwise
(each problem is reported on stderr as ``file:line: ...``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Markdown files whose links are checked, relative to the repo root.
DOC_FILES = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "benchmarks/README.md",
    "ROADMAP.md",
)

#: ``[text](target)`` — good enough for the docs in this repository
#: (no nested brackets, no reference-style links).
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: The architecture document, whose headings are checked too.
ARCHITECTURE = "docs/ARCHITECTURE.md"

#: Most lines the architecture document may have.  A ratchet: lower it
#: whenever the document shrinks, never raise it.
ARCHITECTURE_MAX_LINES = 1452

#: A heading titled after a change: ``### Bulk load (PR 23)``.
CHANGE_TITLED_HEADING = re.compile(r"^#+ .*\(PR \d+\)")

#: The reference twins' directory; each ``*.py`` in it is one twin.
REFERENCE_DIR = "tests/reference"

#: A path under ``REFERENCE_DIR`` as the architecture prose writes it.
REFERENCE_PATH = re.compile(r"tests/reference/[\w./]*")

#: Directories whose ``.py`` files may only cite documents that exist.
SOURCE_DIRS = ("src", "evaluation", "benchmarks", "tests")

#: A document name in code or prose: ``CHANGES.md``, ``docs/ARCHITECTURE.md``.
MD_NAME = re.compile(r"(?<![\w./-])\w[\w./-]*\.md\b")

#: A numbered ROADMAP item, possibly wrapped across a line break.
ROADMAP_ITEM = re.compile(r"ROADMAP\s+items?\s+\d+")


def iter_links(path: Path):
    """Yield ``(line_number, target)`` for every markdown link in a file."""
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        for match in LINK_PATTERN.finditer(line):
            yield line_number, match.group(1)


def check_file(root: Path, relative: str) -> list[str]:
    """All broken links of one document, as ``file:line: target`` strings."""
    path = root / relative
    if not path.exists():
        return [f"{relative}: file missing"]
    problems = []
    for line_number, target in iter_links(path):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, anchor = target.partition("#")
        if not base:
            if not anchor:
                problems.append(f"{relative}:{line_number}: empty link target")
            continue
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            problems.append(f"{relative}:{line_number}: {target}")
    if relative == ARCHITECTURE:
        lines = path.read_text().splitlines()
        if len(lines) > ARCHITECTURE_MAX_LINES:
            problems.append(
                f"{relative}: {len(lines)} lines, over the cap of "
                f"{ARCHITECTURE_MAX_LINES}"
            )
        for line_number, line in enumerate(lines, start=1):
            if CHANGE_TITLED_HEADING.match(line):
                problems.append(
                    f"{relative}:{line_number}: change-titled heading: {line}"
                )
        problems.extend(check_twins(root, path))
    return problems


def check_twins(root: Path, architecture: Path) -> list[str]:
    """Twin paths the architecture names that do not exist, and twins it
    never names."""
    problems = []
    named = set()
    lines = architecture.read_text().splitlines()
    for line_number, line in enumerate(lines, start=1):
        for match in REFERENCE_PATH.finditer(line):
            target = match.group(0).rstrip(".")
            named.add(target)
            if not (root / target).exists():
                problems.append(f"{ARCHITECTURE}:{line_number}: no such twin: {target}")
    for twin in sorted((root / REFERENCE_DIR).glob("*.py")):
        target = f"{REFERENCE_DIR}/{twin.name}"
        if not twin.name.startswith("_") and target not in named:
            problems.append(f"{ARCHITECTURE}: twin never named: {target}")
    return problems


def check_cited_documents(root: Path) -> list[str]:
    """``*.md`` names in the source trees' ``.py`` files that resolve
    neither from the repository root nor from the citing file, and
    ROADMAP items cited by number."""
    problems = []
    for directory in SOURCE_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            relative = path.relative_to(root)
            for line_number, line in enumerate(text.splitlines(), start=1):
                for match in MD_NAME.finditer(line):
                    name = match.group(0)
                    if (root / name).exists() or (path.parent / name).exists():
                        continue
                    problems.append(
                        f"{relative}:{line_number}: no such document: {name}"
                    )
            for match in ROADMAP_ITEM.finditer(text):
                line_number = text.count("\n", 0, match.start()) + 1
                cited = " ".join(match.group(0).split())
                problems.append(
                    f"{relative}:{line_number}: numbered ROADMAP item: {cited}"
                )
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    problems: list[str] = []
    checked = 0
    for relative in DOC_FILES:
        if not (root / relative).exists():
            problems.append(f"{relative}: file missing")
            continue
        checked += 1
        problems.extend(check_file(root, relative))
    problems.extend(check_cited_documents(root))
    if problems:
        for problem in problems:
            print(f"docs: {problem}", file=sys.stderr)
        return 1
    print(f"docs ok: {checked} files, all relative links resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
