"""Rendering sweep results as the paper's figure panels.

Figure 1 has four panels — (messages | data volume) × (bible words |
painting titles) — each with three curves (``qsamples``, ``qgrams``,
``strings``) over the peer count.  :func:`format_panel` prints one panel
as a text table with the same rows/series; :func:`write_csv` emits
machine-readable output for plotting.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence

from repro.core.config import SimilarityStrategy
from evaluation.experiment import ALL_STRATEGIES
from evaluation.sweep import SweepResult

#: Figure panel ids and their (dataset, metric) coordinates.
PANELS = {
    "fig1a": ("bible", "messages"),
    "fig1b": ("bible", "volume"),
    "fig1c": ("titles", "messages"),
    "fig1d": ("titles", "volume"),
}

PANEL_TITLES = {
    "fig1a": "Figure 1(a): Messages (bible words)",
    "fig1b": "Figure 1(b): Data volume (bible words)",
    "fig1c": "Figure 1(c): Messages (painting titles)",
    "fig1d": "Figure 1(d): Data volume (painting titles)",
}


def panel_strategies(
    result: SweepResult,
) -> tuple[SimilarityStrategy, ...]:
    """The strategies a sweep actually measured, in legend order.

    The three fixed series come first (the paper's legend), then any
    additional measured series — in practice ``adaptive``.
    """
    if not result.cells:
        return ALL_STRATEGIES
    measured = result.cells[0].by_strategy
    ordered = [s for s in ALL_STRATEGIES if s in measured]
    ordered += [s for s in measured if s not in ordered]
    return tuple(ordered)


def format_panel(
    panel: str,
    result: SweepResult,
    strategies: Sequence[SimilarityStrategy] | None = None,
) -> str:
    """One panel as an aligned text table (all measured series)."""
    if strategies is None:
        strategies = panel_strategies(result)
    __, metric = PANELS[panel]
    lines = [PANEL_TITLES[panel]]
    header = ["peers"] + [s.value for s in strategies]
    rows: list[list[str]] = [header]
    for cell in result.cells:
        row = [str(cell.n_peers)]
        for strategy in strategies:
            if metric == "messages":
                row.append(str(cell.messages(strategy)))
            else:
                row.append(f"{cell.megabytes(strategy):.3f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    if metric == "volume":
        lines.append("(data volume in MB of payload shipped by the whole workload)")
    return "\n".join(lines)


def render_csv(
    result: SweepResult,
    strategies: Sequence[SimilarityStrategy] | None = None,
) -> str:
    """Sweep results as CSV: one row per (peers, strategy)."""
    if strategies is None:
        strategies = panel_strategies(result)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["dataset", "peers", "strategy", "messages", "megabytes"])
    for cell in result.cells:
        for strategy in strategies:
            writer.writerow(
                [
                    result.dataset,
                    cell.n_peers,
                    strategy.value,
                    cell.messages(strategy),
                    f"{cell.megabytes(strategy):.6f}",
                ]
            )
    return buffer.getvalue()


def write_csv(path: str, result: SweepResult) -> None:
    """Write :func:`render_csv` output to a file."""
    with open(path, "w", newline="") as handle:
        handle.write(render_csv(result))


#: Schema tag embedded in ``BENCH_fig1.json``.  v7 removes
#: ``scale.jobs`` with the process-pool sweep (every sweep is serial).
#: v6 removed ``scale.fanout`` with the intra-cell thread fan-out.  v5
#: removed ``scale.naive_sample_rate`` and the per-cell
#: ``naive_sampled`` flag with the sampled-broadcast estimator (every
#: series is exact).  v4 added the per-dataset ``sweep_seconds``
#: (end-to-end sweep wall clock); v3 added the ``adaptive`` strategy
#: series plus the per-cell ``adaptive_stats_messages`` /
#: ``adaptive_stats_bytes`` / ``adaptive_choices`` fields (the cost of
#: the one-off statistics walk and the cost model's strategy picks) —
#: all additive; the v2 ``build_seconds`` and the v1 series fields are
#: unchanged.
FIG1_SCHEMA = "repro-bench-fig1/v7"


def sweep_to_dict(
    result: SweepResult,
    strategies: Sequence[SimilarityStrategy] | None = None,
) -> dict:
    """One sweep as a JSON-ready dict (the ``BENCH_fig1.json`` cell list).

    Each cell carries the figure series (messages / megabytes per
    strategy) plus the perf-trajectory fields: wall-clock seconds,
    network build seconds, stored entry count and payload bytes.  Cells
    with an adaptive replay carry the statistics-walk cost and the tally
    of chosen strategies.
    """
    if strategies is None:
        strategies = panel_strategies(result)
    cells = []
    for cell in result.cells:
        cell_dict = {
            "peers": cell.n_peers,
            "wall_seconds": round(cell.wall_seconds, 4),
            "build_seconds": round(cell.build_seconds, 4),
            "total_entries": cell.total_entries,
            "stored_payload_bytes": cell.stored_payload_bytes,
            "strategies": {
                strategy.value: {
                    "messages": cell.messages(strategy),
                    "megabytes": round(cell.megabytes(strategy), 6),
                }
                for strategy in strategies
            },
        }
        if SimilarityStrategy.ADAPTIVE in cell.by_strategy:
            cell_dict["adaptive_stats_messages"] = cell.adaptive_stats_messages
            cell_dict["adaptive_stats_bytes"] = cell.adaptive_stats_bytes
            cell_dict["adaptive_choices"] = dict(
                sorted(cell.adaptive_choices.items())
            )
        cells.append(cell_dict)
    return {
        "dataset": result.dataset,
        "sweep_seconds": round(result.wall_seconds, 4),
        "cells": cells,
    }


def render_fig1_json(
    results: dict[str, SweepResult],
    scale: dict,
    strategies: Sequence[SimilarityStrategy] | None = None,
) -> dict:
    """The full ``BENCH_fig1.json`` payload for a set of sweeps."""
    return {
        "schema": FIG1_SCHEMA,
        "generated_by": "python -m evaluation --json",
        "scale": scale,
        "datasets": {
            name: sweep_to_dict(result, strategies)
            for name, result in results.items()
        },
    }


def shape_check(result: SweepResult) -> list[str]:
    """Qualitative assertions about a sweep, as human-readable findings.

    Checks the claims Figure 1 supports: the naive strategy grows with the
    peer count while the q-gram strategies grow much slower, and q-samples
    stay at or below q-grams.  Returns a list of findings (empty = every
    expectation held).
    """
    findings: list[str] = []
    naive = result.message_series(SimilarityStrategy.NAIVE)
    qgram = result.message_series(SimilarityStrategy.QGRAM)
    qsample = result.message_series(SimilarityStrategy.QSAMPLE)
    if len(naive) >= 2:
        naive_growth = naive[-1] / max(naive[0], 1)
        qgram_growth = qgram[-1] / max(qgram[0], 1)
        if naive_growth <= qgram_growth:
            findings.append(
                f"naive should outgrow qgrams: naive x{naive_growth:.1f} "
                f"vs qgrams x{qgram_growth:.1f}"
            )
    if qsample[-1] > qgram[-1]:
        findings.append(
            f"qsamples should not exceed qgrams at scale: "
            f"{qsample[-1]} vs {qgram[-1]}"
        )
    if naive[-1] <= qsample[-1]:
        findings.append(
            f"naive should be the most expensive at scale: "
            f"{naive[-1]} vs qsamples {qsample[-1]}"
        )
    if result.cells and SimilarityStrategy.ADAPTIVE in result.cells[0].by_strategy:
        adaptive = result.message_series(SimilarityStrategy.ADAPTIVE)
        for index, cell in enumerate(result.cells):
            best = min(naive[index], qgram[index], qsample[index])
            if adaptive[index] > 2 * best:
                findings.append(
                    f"adaptive should stay within 2x of the best fixed "
                    f"strategy: {adaptive[index]} vs {best} at "
                    f"{cell.n_peers} peers"
                )
    return findings
