"""Shared fixtures for the service-layer tests.

Everything is built on a small, fully deterministic corpus of words with
known near-neighbours (``serve_utils.WORDS``) so similarity answers can
be asserted exactly.  The ``service_factory`` fixture hands out services
and closes every one it built at teardown, as server entry points do.
"""

from __future__ import annotations

import pytest
from serve_utils import ATTRIBUTE, make_triples

from repro import QueryEngine, StoreConfig
from repro.serve.app import QueryService, ServiceConfig


@pytest.fixture
def service_factory():
    """Build services over the standard corpus; closes them at teardown."""
    built: list[QueryService] = []

    def factory(
        n_peers: int = 32,
        seed: int = 1,
        strategy: str | None = None,
        analyze: bool = True,
        config: ServiceConfig | None = None,
        store_config: StoreConfig | None = None,
    ) -> QueryService:
        engine = QueryEngine.build(
            n_peers=n_peers,
            triples=make_triples(),
            config=store_config or StoreConfig(seed=seed),
            strategy=strategy,
        )
        if analyze:
            engine.analyze([ATTRIBUTE])
        service = QueryService(engine, config)
        built.append(service)
        return service

    yield factory
    for service in built:
        service.close()
