"""Shared fixtures: small populated networks and stores."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import settings

from repro.core.config import StoreConfig
from repro.datasets.cars import car_database
from repro.engine import QueryEngine
from repro.overlay.hashing import CompositeKeyCodec
from repro.overlay.network import PGridNetwork
from repro.query.operators.base import OperatorContext
from repro.query.operators.naive import RegionColumn
from repro.storage.indexing import EntryFactory
from repro.storage.triple import Triple

#: ``--hypothesis-profile=deep``: the size the mutation state machine
#: (``tests/properties/test_mutation_equivalence.py``) is run at before a
#: change to memo maintenance merges, and by the ``mutate-smoke`` CI job.
settings.register_profile(
    "deep", max_examples=1000, stateful_step_count=30, deadline=None
)

#: A small, edit-distance-rich word collection used across tests.
WORDS = [
    "apple", "apply", "ample", "maple", "apples", "applet", "appl", "aple",
    "grape", "grapes", "grace", "trace", "track", "crack",
    "banana", "band", "bandana", "bananas",
    "cherry", "cherries", "berry", "merry", "ferry", "fern",
    "overlay", "overlap", "overall", "overhaul",
]

TEXT_ATTR = "word:text"
LEN_ATTR = "word:len"


def word_triples() -> list[Triple]:
    """Two-attribute objects for every test word."""
    triples = []
    for index, word in enumerate(WORDS):
        oid = f"w:{index:04d}"
        triples.append(Triple(oid, TEXT_ATTR, word))
        triples.append(Triple(oid, LEN_ATTR, len(word)))
    return triples


def build_word_network(
    n_peers: int = 32, config: StoreConfig | None = None
) -> PGridNetwork:
    """A populated network over the shared word collection."""
    config = config if config is not None else StoreConfig(seed=7)
    codec = CompositeKeyCodec(config)
    factory = EntryFactory(config, codec)
    triples = word_triples()
    sample = [e.key for e in factory.entries_for_all(triples)]
    network = PGridNetwork(n_peers, config, sample_keys=sample)
    network.insert_triples(triples)
    return network


@pytest.fixture(scope="module")
def word_network() -> PGridNetwork:
    return build_word_network()


@pytest.fixture(scope="module")
def word_ctx(word_network) -> OperatorContext:
    return OperatorContext(word_network)


@pytest.fixture
def region_scans():
    """Mock wrapping the naive region column's store walk: its
    ``call_count`` is the number of partition scans performed."""
    with mock.patch.object(
        RegionColumn, "_scan", autospec=True, side_effect=RegionColumn._scan
    ) as scan:
        yield scan


@pytest.fixture(scope="module")
def word_store() -> QueryEngine:
    return QueryEngine.build(32, word_triples(), StoreConfig(seed=7))


@pytest.fixture(scope="module")
def car_store() -> QueryEngine:
    db = car_database(n_cars=80, n_dealers=12, seed=5)
    return QueryEngine.build(48, db.triples, StoreConfig(seed=5))
