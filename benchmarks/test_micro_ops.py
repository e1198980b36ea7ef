"""Micro-benchmarks of the hot primitives (DESIGN.md micro).

These use pytest-benchmark's normal calibration — each operation is
microseconds, and the timings bound what the simulator can sweep.

The verification ops come in (fast path, reference path) pairs: the
batched implementation must beat the per-candidate implementation it
replaced, and the Myers kernel the banded-DP kernel of
``tests/reference/kernel.py``.
"""

import random

import pytest

from repro.core.config import StoreConfig
from repro.overlay.hashing import CompositeKeyCodec, OrderPreservingStringHash
from repro.similarity.edit_distance import edit_distance, edit_distance_within
from repro.similarity.kernels import MyersKernel, MyersQuery
from repro.similarity.verify import BatchVerifier
from repro.storage.datastore import LocalDataStore
from repro.storage.indexing import EntryFactory
from repro.storage.qgrams import positional_qgrams, qgram_sample, qgram_tuples
from repro.storage.triple import Triple

from benchmarks.conftest import BENCH_CONFIG
from tests.conftest import TEXT_ATTR, build_word_network
from tests.reference.kernel import ReferenceKernel

TITLE = "portrait of a young woman in blue near the mill after the rain"


def test_edit_distance_words(benchmark):
    assert benchmark(edit_distance, "similarity", "similarly") == 2


def test_edit_distance_titles(benchmark):
    other = TITLE.replace("blue", "red").replace("rain", "storm")
    assert benchmark(edit_distance, TITLE, other) > 0


def test_banded_edit_distance_rejects_fast(benchmark):
    # The banded variant's selling point: distant strings abort early.
    result = benchmark(edit_distance_within, TITLE, "x" * len(TITLE), 3)
    assert result == 4


def test_myers_edit_distance_rejects_fast(benchmark):
    """The bit-parallel pair member: same probe, precompiled masks."""
    state = MyersQuery(TITLE)
    other = "x" * len(TITLE)
    result = benchmark(state.within, other, 3)
    assert result == 4


def test_positional_qgrams_title(benchmark):
    grams = benchmark(positional_qgrams, TITLE, 3)
    assert len(grams) == len(TITLE) + 2


def test_qgram_sample_title(benchmark):
    sample = benchmark(qgram_sample, TITLE, 3, 3)
    assert len(sample) == 4


def test_order_preserving_hash(benchmark):
    hasher = OrderPreservingStringHash(32)
    assert len(benchmark(hasher.key, "similarity")) == 32


def test_entry_generation(benchmark):
    config = StoreConfig(seed=0)
    factory = EntryFactory(config, CompositeKeyCodec(config))
    triple = Triple("p:00001", "painting:title", TITLE)
    entries = benchmark(lambda: list(factory.entries_for(triple)))
    assert len(entries) > len(TITLE)


def test_routing_walk(benchmark):
    network = build_word_network(n_peers=64)
    key = network.codec.attr_value_key(TEXT_ATTR, "cherry")

    def route_once():
        return network.router.route(key, 0)

    peer = benchmark(route_once)
    assert peer.responsible_for(key)


def test_batched_route_many(benchmark):
    network = build_word_network(n_peers=64)
    from tests.conftest import WORDS

    keys = [network.codec.attr_value_key(TEXT_ATTR, w) for w in WORDS]

    def batch():
        return network.router.route_many(keys, 0)

    answers = benchmark(batch)
    assert len(answers) == len(set(keys))


# -- gram lookup + verification pairs (the Similar() hot path) ---------------


@pytest.fixture(scope="module")
def bible_store():
    """One peer-sized store of bible index entries plus probe keys."""
    from repro.datasets.bible import bible_triples

    factory = EntryFactory(BENCH_CONFIG, CompositeKeyCodec(BENCH_CONFIG))
    entries = list(factory.entries_for_all(bible_triples(1500, seed=0)))
    store = LocalDataStore()
    store.add_bulk(entries)
    rng = random.Random(0)
    probes = [rng.choice(entries).key for __ in range(500)]
    return store, probes


@pytest.fixture(scope="module")
def verification_pile():
    """A (query, candidates) pile with the workload's natural repeats."""
    from repro.datasets.bible import bible_triples

    words = sorted({str(t.value) for t in bible_triples(1500, seed=0)})
    rng = random.Random(0)
    return rng.choice(words), [rng.choice(words) for __ in range(2000)]


def test_gram_lookup_indexed(benchmark, bible_store):
    store, probes = bible_store
    store.lookup(probes[0])  # warm the postings map outside the timing

    def indexed():
        return sum(len(store.lookup(key)) for key in probes)

    assert benchmark(indexed) > 0


def test_verification_batched(benchmark, verification_pile):
    """The shared-prefix banded DP batch (pinned to the reference kernel).

    Both batched benchmarks time verification only — a fresh verifier
    plus one ``distances`` pass; consuming the dict is caller-side work
    identical across kernels, so it happens outside the timed region.
    """
    query, candidates = verification_pile
    kernel = ReferenceKernel()

    def batched():
        return BatchVerifier(query, 2, kernel=kernel).distances(candidates)

    distances = benchmark(batched)
    assert sum(1 for c in candidates if distances[c] <= 2) == sum(
        1 for c in candidates if edit_distance_within(query, c, 2) <= 2
    )


def test_verification_batched_myers(benchmark, verification_pile):
    """The bit-parallel pair member (numpy prefilter when importable)."""
    query, candidates = verification_pile
    kernel = MyersKernel()

    def batched():
        return BatchVerifier(query, 2, kernel=kernel).distances(candidates)

    distances = benchmark(batched)
    assert sum(1 for c in candidates if distances[c] <= 2) == sum(
        1 for c in candidates if edit_distance_within(query, c, 2) <= 2
    )


def test_verification_single(benchmark, verification_pile):
    """The pre-batching reference path: one fresh DP per candidate."""
    query, candidates = verification_pile

    def single():
        return sum(
            1 for c in candidates if edit_distance_within(query, c, 2) <= 2
        )

    assert benchmark(single) >= 0


def test_qgram_tuples_title(benchmark):
    grams = benchmark(qgram_tuples, TITLE, 3)
    assert len(grams) == len(TITLE) + 2
