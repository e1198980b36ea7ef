"""Boot the query service on a generated dataset.

Usage::

    PYTHONPATH=src python -m repro.serve --peers 64 --words 2000
    PYTHONPATH=src python -m repro.serve --port 8765 --strategy adaptive

Builds a bible-words corpus, wraps it in a
:class:`~repro.engine.QueryEngine` (statistics pre-collected so the
cost model and admission control have something to predict from), and
serves until interrupted.  Fire a query::

    curl -s localhost:8765/healthz
    curl -s -X POST localhost:8765/query/similar \\
         -d '{"search": "beginnin", "attribute": "word:text", "d": 1}'
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.core.config import StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.engine import QueryEngine
from repro.serve.app import QueryService, ServiceConfig
from repro.serve.http import ServiceServer


def build_service(
    peers: int,
    words: int,
    seed: int,
    strategy: str,
    max_inflight: int,
    cost_budget: float,
) -> QueryService:
    """Engine + service wired the way every serve entry point needs."""
    engine = QueryEngine.build(
        n_peers=peers,
        triples=bible_triples(words, seed=seed),
        config=StoreConfig(
            seed=seed, index_values=False, index_schema_grams=False
        ),
        strategy=strategy,
    )
    engine.analyze([TEXT_ATTRIBUTE])
    return QueryService(
        engine,
        ServiceConfig(max_inflight=max_inflight, cost_budget=cost_budget),
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the P-Grid query engine over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--peers", type=int, default=64)
    parser.add_argument("--words", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--strategy",
        default="adaptive",
        help="default similarity strategy (default: adaptive)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="admission: max in-flight queries (default: 8)",
    )
    parser.add_argument(
        "--cost-budget",
        type=float,
        default=0.0,
        help="admission: max outstanding predicted messages (0 = off)",
    )
    return parser


async def _serve(args) -> None:
    with build_service(
        args.peers,
        args.words,
        args.seed,
        args.strategy,
        args.max_inflight,
        args.cost_budget,
    ) as service:
        server = ServiceServer(service, args.host, args.port)
        await server.start()
        print(
            f"serving {args.words} words on {args.peers} peers at "
            f"http://{args.host}:{server.port}",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("interrupted, shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
