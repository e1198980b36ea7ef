"""One repeat in a fresh process: ``python -m perf.worker '<json spec>'``.

The spec names the workload, seed, repeat number, seconds, scale and
whether to trace; the result is one JSON object on the last line of
standard output.  :func:`run` is the same thing in-process (the tier-1
smoke uses it to skip interpreter start-up).
"""

from __future__ import annotations

import json
import sys

from perf.paths import pin_to_cpu


def run(spec: dict) -> dict:
    """Run one repeat described by ``spec`` and return its raw result."""
    if spec["workload"] == "serve_http":
        from perf.serve_http import run_repeat
    else:
        from perf.workloads import run_repeat
    return run_repeat(
        spec["workload"], spec["seed"], spec["repeat"], spec["seconds"],
        spec["scale"], spec["trace"],
    )


if __name__ == "__main__":
    pin_to_cpu()
    print(json.dumps(run(json.loads(sys.argv[1]))))
