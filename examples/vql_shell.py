"""Interactive VQL shell.

Run from the repository root with::

    PYTHONPATH=src python examples/vql_shell.py

A small REPL over a :class:`~repro.engine.QueryEngine` for poking at the
system: load a demo dataset, type VQL, inspect plans, costs, and the
adaptive strategy decisions.

Commands (everything else is executed as VQL):

=====================  ====================================================
``.help``              this text
``.load cars [N]``     load the car/dealer demo database (default 200 cars)
``.load words [N]``    load N synthetic bible words (default 2000)
``.peers N``           rebuild the network with N peers (data reloads)
``.strategy NAME``     qgrams | qsamples | strings | adaptive
``.analyze A [B ...]`` collect statistics (cost-based planning + cost model)
``.predict S A D``     per-strategy cost predictions for Similar(S, A, D)
``.explain QUERY``     show the physical plan without executing
``.stats``             session cost ledger
``.quit``              leave
=====================  ====================================================

In ``adaptive`` mode every similarity query is resolved by the cost
model; the chosen strategy and its predicted-vs-actual message cost are
printed with the query result (they ride on the
:class:`~repro.overlay.messages.CostReport`).
"""

from __future__ import annotations

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.core.errors import ReproError
from repro.engine import QueryEngine


class Shell:
    """State and command dispatch for the REPL (UI-independent, testable)."""

    def __init__(self, n_peers: int = 64, seed: int = 0):
        self.n_peers = n_peers
        self.seed = seed
        self.dataset: tuple[str, int] | None = None
        self.engine = QueryEngine.build(n_peers, config=StoreConfig(seed=seed))

    def execute(self, line: str) -> str:
        """Run one input line; returns the text to display.

        Raises ``SystemExit`` on ``.quit``; library errors come back as
        messages, never tracebacks.
        """
        line = line.strip()
        if not line:
            return ""
        try:
            if line.startswith("."):
                return self._command(line)
            return self._query(line)
        except ReproError as error:
            return f"error: {error}"

    # -- dot commands -----------------------------------------------------------

    def _command(self, line: str) -> str:
        parts = line.split()
        name, args = parts[0], parts[1:]
        if name == ".help":
            return __doc__.split("Commands", 1)[1]
        if name == ".quit":
            raise SystemExit(0)
        if name == ".load":
            return self._load(args)
        if name == ".peers":
            if not args or not args[0].isdigit():
                return "usage: .peers N"
            self.n_peers = int(args[0])
            return self._rebuild()
        if name == ".strategy":
            if not args:
                return f"strategy: {self.engine.ctx.strategy.value}"
            self.engine.ctx.strategy = SimilarityStrategy.from_name(args[0])
            return f"strategy set to {self.engine.ctx.strategy.value}"
        if name == ".analyze":
            if not args:
                return "usage: .analyze ATTRIBUTE [ATTRIBUTE ...]"
            catalog = self.engine.analyze(args)
            lines = [
                f"{a}: ~{catalog.get(a).row_count} rows, "
                f"~{catalog.get(a).distinct_estimate} distinct"
                for a in catalog.attributes()
            ]
            return "\n".join(lines)
        if name == ".predict":
            if len(args) != 3 or not args[2].isdigit():
                return "usage: .predict SEARCH ATTRIBUTE DISTANCE"
            predictions = self.engine.predict_similar(
                args[0], args[1], int(args[2])
            )
            return "\n".join(
                f"{value}: ~{p.messages:.0f} messages, "
                f"~{p.payload_bytes:.0f} bytes, ~{p.latency_ms:.0f} ms"
                for value, p in predictions.items()
            )
        if name == ".explain":
            if not args:
                return "usage: .explain SELECT ..."
            return self.engine.explain(line.split(None, 1)[1])
        if name == ".stats":
            return self.engine.stats.summary()
        return f"unknown command {name!r} — try .help"

    def _load(self, args: list[str]) -> str:
        if not args:
            return "usage: .load cars|words [N]"
        kind = args[0]
        count = int(args[1]) if len(args) > 1 and args[1].isdigit() else 0
        if kind == "cars":
            self.dataset = ("cars", count or 200)
        elif kind == "words":
            self.dataset = ("words", count or 2000)
        else:
            return f"unknown dataset {kind!r} (cars | words)"
        return self._rebuild()

    def _rebuild(self) -> str:
        triples = []
        label = "empty"
        if self.dataset is not None:
            kind, count = self.dataset
            if kind == "cars":
                from repro.datasets.cars import car_database

                triples = car_database(n_cars=count, seed=self.seed).triples
                label = f"{count} cars + dealers"
            else:
                from repro.datasets.bible import bible_triples

                triples = bible_triples(count, seed=self.seed)
                label = f"{count} words"
        strategy = self.engine.ctx.strategy
        self.engine = QueryEngine.build(
            self.n_peers, triples, StoreConfig(seed=self.seed),
            strategy=strategy,
        )
        return (
            f"network: {self.engine.n_peers} peers, {label}, "
            f"{self.engine.network.total_entries()} entries"
        )

    # -- queries -------------------------------------------------------------------

    def _query(self, text: str) -> str:
        result = self.engine.query(text)
        lines = []
        for row in result.rows[:50]:
            lines.append(
                "  ".join(f"{k}={v!r}" for k, v in row.items())
            )
        if len(result.rows) > 50:
            lines.append(f"... ({len(result.rows)} rows total)")
        lines.append(
            f"[{len(result.rows)} rows, {result.cost.messages} messages, "
            f"{result.cost.payload_bytes} bytes]"
        )
        for decision in result.cost.decisions:
            lines.append(f"[adaptive] {decision.summary()}")
        return "\n".join(lines)


def main() -> int:  # pragma: no cover - interactive entry point
    shell = Shell()
    print("repro VQL shell — .help for commands, .quit to leave")
    print(shell.execute(".load words 500"))
    while True:
        try:
            line = input("vql> ")
        except EOFError:
            print()
            return 0
        try:
            output = shell.execute(line)
        except SystemExit:
            return 0
        except Exception as error:  # noqa: BLE001 - REPL must survive
            output = f"error: {error}"
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
