"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m evaluation                      # all four panels, default scale
    python -m evaluation --figure fig1a       # one panel
    python -m evaluation --full               # paper scale (slow, memory-heavy)
    python -m evaluation --peers 128 1024 --words 4000 --repetitions 10
    python -m evaluation --csv-dir results/   # also write CSV series
    python -m evaluation --json               # + BENCH_fig1.json

Run from the repository root with ``PYTHONPATH=src``.  Default scale
keeps the run to minutes on a laptop; ``--full`` switches to the
paper's corpus sizes (106 704 words / 66 349 titles) and peer counts
(100 .. 100 000).  Shapes are preserved at either scale; see
``benchmarks/README.md``.  Datasets and cells run one after another.

Sweeps always run on the incremental engine (shared trie-derivation
state across cells, whole-workload naive memoization); both are
equivalence-preserving, so the measured series are bit-identical to a
from-scratch run.

Each cell additionally replays the workload in **adaptive** mode (the
cost model of :mod:`repro.query.cost` picks naive vs. q-gram per query
from collected statistics); the ``adaptive`` series, the one-off
statistics cost, and the per-cell strategy tally are recorded in the
JSON (schema v3, additive).  ``--no-adaptive`` skips that replay — the
three fixed series are bit-identical either way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core.config import StoreConfig
from repro.datasets.bible import PAPER_WORD_COUNT, TEXT_ATTRIBUTE, bible_triples
from repro.datasets.paintings import (
    PAPER_TITLE_COUNT,
    TITLE_ATTRIBUTE,
    painting_triples,
)
from evaluation.experiment import ALL_STRATEGIES, ALL_WITH_ADAPTIVE
from evaluation.report import (
    PANELS,
    format_panel,
    render_fig1_json,
    shape_check,
    write_csv,
)
from evaluation.sweep import (
    DEFAULT_PEER_COUNTS,
    PAPER_PEER_COUNTS,
    SweepResult,
    full_scale,
    sweep,
)

#: Default (scaled-down) corpus sizes.
DEFAULT_WORDS = 8_000
DEFAULT_TITLES = 4_000
DEFAULT_REPETITIONS = 10


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m evaluation",
        description="Regenerate Figure 1 of Karnstedt et al., ICDE 2006.",
    )
    parser.add_argument(
        "--figure",
        choices=sorted(PANELS) + ["all"],
        default="all",
        help="which panel(s) to regenerate",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale corpora and peer counts (slow)",
    )
    parser.add_argument("--peers", type=int, nargs="+", help="peer counts to sweep")
    parser.add_argument("--words", type=int, help="bible corpus size")
    parser.add_argument("--titles", type=int, help="painting-title corpus size")
    parser.add_argument(
        "--repetitions",
        type=int,
        help="workload repetitions (paper: 40)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv-dir", help="directory for CSV series output")
    parser.add_argument(
        "--json",
        action="store_true",
        help="write the BENCH_fig1.json baseline",
    )
    parser.add_argument(
        "--json-dir",
        default=".",
        help="directory for BENCH_fig1.json (default: cwd)",
    )
    parser.add_argument(
        "--skip-shape-check",
        action="store_true",
        help="do not fail on qualitative shape findings (tiny smoke runs)",
    )
    parser.add_argument(
        "--no-adaptive",
        action="store_true",
        help="skip the cost-model-driven adaptive replay (the three "
        "fixed series are bit-identical either way; adaptive always "
        "runs last and is recorded as its own series)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    use_full = args.full or full_scale()
    peer_counts = tuple(
        args.peers
        if args.peers
        else (PAPER_PEER_COUNTS if use_full else DEFAULT_PEER_COUNTS)
    )
    words = args.words or (PAPER_WORD_COUNT if use_full else DEFAULT_WORDS)
    titles = args.titles or (PAPER_TITLE_COUNT if use_full else DEFAULT_TITLES)
    repetitions = args.repetitions or (40 if use_full else DEFAULT_REPETITIONS)
    # The Figure 1 workload is instance-level only: keyword (VALUE) and
    # schema-gram entries are never queried, and the schema grams of a
    # single-attribute corpus form an indivisible hotspot no trie split
    # can balance, so the harness leaves both families out of the
    # storage scheme.
    config = StoreConfig(
        seed=args.seed, index_values=False, index_schema_grams=False
    )
    wanted = sorted(PANELS) if args.figure == "all" else [args.figure]
    datasets_needed = {PANELS[panel][0] for panel in wanted}

    def progress(message: str) -> None:
        print(f"  [{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr)

    options = {
        "peer_counts": peer_counts,
        "config": config,
        "repetitions": repetitions,
        "strategies": (
            ALL_STRATEGIES if args.no_adaptive else ALL_WITH_ADAPTIVE
        ),
        "progress": progress,
    }
    results: dict[str, SweepResult] = {}
    if "bible" in datasets_needed:
        print(
            f"# bible words: {words} words, peers {list(peer_counts)}, "
            f"{repetitions}x6 queries per cell",
            file=sys.stderr,
        )
        corpus = bible_triples(words, seed=args.seed)
        strings = [str(t.value) for t in corpus]
        results["bible"] = sweep(
            "bible", corpus, TEXT_ATTRIBUTE, strings, **options
        )
    if "titles" in datasets_needed:
        print(
            f"# painting titles: {titles} titles, peers {list(peer_counts)}",
            file=sys.stderr,
        )
        corpus = painting_triples(titles, seed=args.seed)
        strings = [str(t.value) for t in corpus]
        results["titles"] = sweep(
            "titles", corpus, TITLE_ATTRIBUTE, strings, **options
        )

    status = 0
    for panel in wanted:
        dataset, __ = PANELS[panel]
        result = results[dataset]
        print()
        print(format_panel(panel, result))
    for dataset, result in results.items():
        findings = shape_check(result)
        for finding in findings:
            print(f"! shape check ({dataset}): {finding}")
            if not args.skip_shape_check:
                status = 1
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
            path = os.path.join(args.csv_dir, f"{dataset}.csv")
            write_csv(path, result)
            print(f"wrote {path}", file=sys.stderr)
    if args.json:
        os.makedirs(args.json_dir, exist_ok=True)
        scale = {
            "full": use_full,
            "words": words,
            "titles": titles,
            "peer_counts": list(peer_counts),
            "repetitions": repetitions,
            "seed": args.seed,
            # Whether the cost-model-driven adaptive replay ran (its
            # series is additive; fixed series are identical either way).
            "adaptive": not args.no_adaptive,
        }
        fig1_path = os.path.join(args.json_dir, "BENCH_fig1.json")
        with open(fig1_path, "w") as handle:
            json.dump(render_fig1_json(results, scale), handle, indent=2)
            handle.write("\n")
        print(f"wrote {fig1_path}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
