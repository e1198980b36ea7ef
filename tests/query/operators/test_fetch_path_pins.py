"""Pins what the object-fetch path sends, draws and returns.

``fetch_objects`` groups oids by partition and routes by partition index
(``Router.route_partitions``); nothing a peer sends may depend on that
bookkeeping.  One fixed operation sequence — q-gram, q-sample and naive
similarity, string top-N, exact selection, object lookups and a write
between two rounds — runs on replication 1 and 3, with offline replicas,
with the verbose ``record_log`` on, and under an active seeded
``FaultPlan`` in ``STRICT`` and ``DEGRADED`` mode.  Per scenario three
digests are pinned, recorded at commit ``2bb390f`` (the per-key fetch
path), as ``tests/test_ledger_hash.py`` pins its workload:

* the router RNG's final state (every replica pick and reference pick
  was drawn in the same order),
* the verbose ledger (only where ``record_log`` is on),
* every operation's ``CostReport`` — payload bytes, ``by_type``,
  ``by_phase`` — and answer (or the error it raised).

A change that *means* to alter what a fetch sends edits the literals in
the same commit and says so in CHANGES.md.
"""

import hashlib

import pytest

from repro.core.config import StoreConfig
from repro.core.errors import ReproError
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.engine import QueryEngine
from repro.overlay.faults import FaultPlan
from repro.storage.triple import Triple

PLAN = FaultPlan(
    drop_probability=0.3,
    unavailable_windows=((3, 0, 600), (17, 200, 1500), (40, 0, 4000)),
    seed=9,
)

#: scenario -> (replication, offline replicas, record_log, fault mode).
SCENARIOS = {
    "r1": (1, False, False, None),
    "r3": (3, False, False, None),
    "r3-offline": (3, True, False, None),
    "r1-log": (1, False, True, None),
    "r3-offline-log": (3, True, True, None),
    "r3-strict": (3, False, False, "strict"),
    "r3-degraded": (3, False, False, "degraded"),
    "r3-offline-degraded-log": (3, True, True, "degraded"),
}

#: scenario -> (router RNG state, verbose ledger, costs and answers).
PINNED = {
    "r1": ("27cefb3849f07348a388", None, "8eebf3adc9d1abb5a24d"),
    "r3": ("d33a7b4b0bab2567c206", None, "bb9fbe4ad6ae69e324f9"),
    "r3-offline": ("be95d20fef59fe8482d2", None, "0c89e5b4ef14a5d2d0cc"),
    "r1-log": ("27cefb3849f07348a388", "13f526cd29e8d22d65e7", "8eebf3adc9d1abb5a24d"),
    "r3-offline-log": ("be95d20fef59fe8482d2", "eca803f5d5fcec025908", "0c89e5b4ef14a5d2d0cc"),
    "r3-strict": ("e80fbd19568b71808763", None, "e17429fd1571e9d5bef7"),
    "r3-degraded": ("d33a7b4b0bab2567c206", None, "fba08d17e203d6f80dbd"),
    "r3-offline-degraded-log": ("1362e7470f94d9f84f1f", "386aaee2396195ecd761", "cf475071750b5f073c22"),
}


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:20]


def observe(scenario: str) -> tuple[str, str | None, str]:
    replication, offline, record_log, fault_mode = SCENARIOS[scenario]
    corpus = bible_triples(400, seed=5)
    words = sorted({str(t.value) for t in corpus})
    engine = QueryEngine.build(
        64,
        corpus,
        StoreConfig(
            seed=13, replication=replication,
            index_values=False, index_schema_grams=False,
        ),
        "qgrams",
    )
    engine.network.tracer.record_log = record_log
    if offline:
        engine.fail_fraction(0.3, protect_partitions=True)
    if fault_mode is not None:
        engine.install_faults(PLAN, mode=fault_mode)
    observed = []

    def record(run) -> None:
        try:
            answer = run()
        except ReproError as error:
            answer = type(error).__name__
        cost = engine.last_cost()
        observed.append(
            (
                cost.payload_bytes,
                sorted(cost.by_type.items()),
                sorted(cost.by_phase.items()),
                answer,
            )
        )

    def matches(result) -> list:
        return sorted((m.oid, m.matched, m.distance) for m in result.matches)

    def round_of_reads() -> None:
        for search in words[::57]:
            record(lambda: matches(engine.similar(search, TEXT_ATTRIBUTE, 1)))
            record(
                lambda: matches(
                    engine.similar(search, TEXT_ATTRIBUTE, 2, strategy="qsamples")
                )
            )
            record(
                lambda: matches(
                    engine.similar(search + "e", TEXT_ATTRIBUTE, 1, strategy="naive")
                )
            )
            record(lambda: matches(engine.top_n_string(TEXT_ATTRIBUTE, search, 5, 3)))
            record(
                lambda: sorted(m.oid for m in engine.select(TEXT_ATTRIBUTE, search))
            )
        for triple in corpus[::131]:
            record(lambda: engine.lookup(triple.oid))
        record(lambda: engine.lookup("no:such-object"))

    round_of_reads()
    batch = [
        Triple(f"new:{index}", TEXT_ATTRIBUTE, word + "s")
        for index, word in enumerate(words[::57])
    ]
    record(lambda: engine.insert(batch, respect_online=offline))
    round_of_reads()
    record(lambda: engine.delete(batch[::2], respect_online=offline))
    round_of_reads()
    ledger = None
    if record_log:
        ledger = _digest(
            [
                (m.type.value, m.sender, m.receiver, m.payload_bytes, m.phase)
                for m in engine.network.tracer.log
            ]
        )
    return _digest(engine.network.router.rng.getstate()), ledger, _digest(observed)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fetch_path_sends_draws_and_returns_what_it_did(scenario):
    assert observe(scenario) == PINNED[scenario]
