"""Where things are, and the environment every child process gets."""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Span dumps and other run leftovers (git-ignored, inside the checkout).
OUT_DIR = ROOT / ".perf_out"


def child_env() -> dict[str, str]:
    """Children see ``src/`` and the repo root, and hash strings alike."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_to_cpu(last: bool = False) -> None:
    """Keep this process on one CPU: the first allowed one, or the last.

    The load generator takes the first and the HTTP server child the last,
    so with two CPUs neither migrates nor shares; single-caller workers
    take the first.  A scheduler free to move three busy threads around two
    CPUs was a visible share of the latency noise.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1] if last else allowed[0]})
