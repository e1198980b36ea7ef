"""The benchmark command: ``python -m perf.run`` from the repository root.

Two ways to call it:

* **by hand** — ``python -m perf.run [--workload W] [--seed N] [--repeats R]
  [--scale tiny|default] [--json OUT] [--selfcheck]``: every selected
  workload is built in fresh child processes, run untraced for the
  end-to-end metrics and once more traced for the per-layer metrics, its
  answers checked against the independent oracle, and every metric
  printed by name with its unit.  Exits non-zero when any answer was
  wrong or any operation failed.
* **by the driver** — ``--workload W --seed N --seconds S --trace 0|1``:
  one workload, one kind of run; the last line of standard output is one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying
  every end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``) that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from perf import metrics
from perf.paths import ROOT, child_env
from perf.stats import median, quartile_distance, ratio

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

#: Seed on which a claimed gain is re-checked; never use it while tuning.
HELD_OUT_SEED = 20260926

#: Workloads with one caller: their simulated cost must repeat exactly.
SINGLE_CALLER = ("fig1_replay", "mutate_mix", "large_overlay")

CHILD_TIMEOUT = 170


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_child(spec: dict) -> dict:
    """One repeat in a fresh interpreter; its result is the last stdout line."""
    done = subprocess.run(
        [sys.executable, "-m", "perf.worker", json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_untraced(workload, seed, seconds, repeats, scale) -> dict:
    """``repeats`` fresh builds, each measuring its share of ``seconds``."""
    results = []
    for repeat in range(repeats):
        results.append(
            run_child(
                {"workload": workload, "seed": seed, "repeat": repeat,
                 "seconds": seconds / repeats, "scale": scale, "trace": False}
            )
        )
        raw = results[-1]["raw"]
        log(
            f"  {workload} repeat {repeat}: {raw['ops']} ops in "
            f"{raw['op_seconds']:.1f}s, set-up {raw['setup_s']:.2f}s, "
            f"speed factor {raw['speed_factor']:.2f}"
        )
    return {
        "values": metrics.end_to_end(results),
        "per_repeat": [metrics.end_to_end([r]) for r in results],
        "repeats": results,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "oracle_checked": sum(r["oracle_checked"] for r in results),
    }


def run_traced(workload, seed, seconds, scale) -> dict:
    """One traced repeat (it alternates untraced and traced operations)."""
    result = run_child(
        {"workload": workload, "seed": seed, "repeat": 0, "seconds": seconds,
         "scale": scale, "trace": True}
    )
    trace = result["trace"]
    values = metrics.per_layer(trace, result["attempted"], result["failed"])
    return {
        "values": values,
        "repeats": [result],
        "driver_share": metrics.driver_share(values),
        "boundary_missing": [
            b["boundary"] for b in trace["boundaries"] if b["status"] != "ok"
        ],
        "unrestored": result["unrestored"],
        "attempted": result["attempted"],
        "failed": result["failed"] + len(result["unrestored"]),
        "oracle_checked": result["oracle_checked"],
    }


def environment(scale: str) -> dict:
    """What a result depends on besides the code: recorded with every run."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "from repro.similarity.kernels import resolve_kernel\n"
         "print(resolve_kernel(None).name)"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
    )
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    kernel = probe.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "edit_kernel": kernel,
        "numpy_prefilter": "prefilter" in kernel,
        "commit": commit.stdout.strip() or "unknown",
        "children_pythonhashseed": child_env()["PYTHONHASHSEED"],
        "scale": scale,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- reports ---------------------------------------------------------------------


def print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:52s} {values[name]:>14.4f} {unit}")


def report(workload: str, untraced: dict, traced: dict) -> None:
    print(f"\n== {workload} ==")
    print_metrics("end to end (untraced):", untraced["values"], metrics.END_TO_END)
    print(
        f"  attempted {untraced['attempted']}, failed {untraced['failed']}, "
        f"oracle-checked {untraced['oracle_checked']}"
    )
    print_metrics("per layer (traced):", traced["values"], metrics.PER_LAYER)
    shares = {
        name: value for name, value in traced["values"].items()
        if name.endswith(".self_share")
    }
    largest = max(shares, key=shares.get)
    print(f"  {'driver.self_share':52s} {traced['driver_share']:>14.4f} ratio")
    print(f"  largest share: {largest} = {shares[largest]:.3f}")
    for target in traced["boundary_missing"]:
        print(f"  boundary_missing: {target}")


def selfcheck(workloads, seed, seconds, repeats, scale) -> int:
    """Two complete sets of the same code and seed must agree."""
    disagreements = 0
    for workload in workloads:
        log(f"selfcheck {workload}: set A")
        first = run_untraced(workload, seed, seconds, repeats, scale)
        log(f"selfcheck {workload}: set B")
        second = run_untraced(workload, seed, seconds, repeats, scale)
        print(f"\n== {workload} ==")
        print(
            f"  {'metric':20s} {'set A':>14s} {'set B':>14s} {'diff':>8s} "
            f"{'bound':>6s} {'min detectable':>15s}"
        )
        for name in metrics.END_TO_END:
            a, b = first["values"][name], second["values"][name]
            diff = ratio(abs(a - b), min(abs(a), abs(b)))
            spread = [r[name] for r in first["per_repeat"] + second["per_repeat"]]
            detectable = ratio(quartile_distance(spread), median(spread))
            exact = name.startswith("sim_") and workload in SINGLE_CALLER
            ok = a == b if exact else diff <= BOUNDS[name]
            disagreements += not ok
            print(
                f"  {name:20s} {a:>14.4f} {b:>14.4f} {diff:>8.2%} "
                f"{'exact' if exact else format(BOUNDS[name], '.0%'):>6s} "
                f"{detectable:>15.2%}{'' if ok else '   <-- DISAGREE'}"
            )
        failed = first["failed"] + second["failed"]
        disagreements += failed
        print(f"  failed operations: {failed}")
    print(f"\nselfcheck: {disagreements} disagreement(s)")
    return 1 if disagreements else 0


# -- entry point -------------------------------------------------------------------


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m perf.run", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="measured seconds per run (all repeats together)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one run, result as the last JSON line")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh builds per untraced run; values are medians")
    parser.add_argument("--scale", choices=("tiny", "default"), default="default")
    parser.add_argument("--json", metavar="OUT", help="also write results here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets back to back and compare them")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log("perf.run: the program under src/ is missing; nothing to measure")
        return 2
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.selfcheck:
        return selfcheck(workloads, args.seed, args.seconds, args.repeats, args.scale)

    if args.trace is not None:  # driver mode
        if args.workload is None:
            log("perf.run: --trace needs --workload")
            return 2
        if args.trace:
            run = run_traced(args.workload, args.seed, args.seconds, args.scale)
            units = metrics.PER_LAYER
        else:
            run = run_untraced(
                args.workload, args.seed, args.seconds, args.repeats, args.scale
            )
            units = metrics.END_TO_END
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(run, handle)
        print(
            json.dumps(
                {
                    "correct": run["failed"] == 0 and run["oracle_checked"] > 0,
                    "attempted": run["attempted"],
                    "failed": run["failed"],
                    "metrics": {
                        name: {"value": run["values"][name], "unit": unit}
                        for name, unit in units.items()
                    },
                }
            )
        )
        return 0 if run["failed"] == 0 else 1

    env = environment(args.scale)
    print("environment: " + json.dumps(env))
    results = {}
    failed = 0
    for workload in workloads:
        log(f"{workload}: untraced")
        untraced = run_untraced(
            workload, args.seed, args.seconds, args.repeats, args.scale
        )
        log(f"{workload}: traced")
        traced = run_traced(workload, args.seed, args.seconds, args.scale)
        report(workload, untraced, traced)
        results[workload] = {"end_to_end": untraced, "per_layer": traced}
        failed += untraced["failed"] + traced["failed"]
        if not untraced["oracle_checked"]:
            log(f"{workload}: the oracle sample was empty")
            failed += 1
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"environment": env, "seed": args.seed, "results": results},
                      handle, indent=1)
    print(f"\nfailed operations and mismatches: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
