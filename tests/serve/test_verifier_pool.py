"""Verifier-pool bounds and kernel diagnostics in the long-lived service.

The service holds one engine — and therefore one
:class:`~repro.similarity.verify.VerifierPool` — for its whole lifetime,
so unbounded per-``(query, d)`` memo growth would be a slow leak.  These
tests pin the eviction contract (LRU beyond ``DEFAULT_POOL_LIMIT``,
which they shrink through the verifier module's constant; hit/evict
counters; recomputation instead of wrong answers) and the ``/stats`` /
per-response surfacing of kernel identity and verifier counters.
"""

from __future__ import annotations

from serve_utils import ATTRIBUTE, WORDS, make_triples, post, run

from repro import QueryEngine, StoreConfig
from repro.serve.app import Request, QueryService
from repro.similarity import verify as verify_module
from repro.similarity.kernels import MyersKernel
from tests.reference.kernel import ReferenceKernel, engines_verify_with


def make_service(built) -> QueryService:
    engine = QueryEngine.build(
        n_peers=32, triples=make_triples(), config=StoreConfig(seed=1)
    )
    service = QueryService(engine)
    built.append(service)
    return service


def shrink_pool(monkeypatch, limit: int) -> None:
    """Engines built after this call bound their pool at ``limit``."""
    monkeypatch.setattr(verify_module, "DEFAULT_POOL_LIMIT", limit)


def similar_query(service, search: str, d: int = 1):
    return run(service.handle(post(
        "/query/similar", {"search": search, "attribute": ATTRIBUTE, "d": d},
    )))


class TestPoolBounds:
    def setup_method(self):
        self.built = []

    def teardown_method(self):
        for service in self.built:
            service.close()

    def test_eviction_and_counters_under_query_churn(self, monkeypatch):
        shrink_pool(monkeypatch, 3)
        service = make_service(self.built)
        pool = service.engine.verifier_pool
        for word in WORDS[:8]:
            response = similar_query(service, word)
            assert response.status == 200
        assert len(pool) <= 3
        assert pool.evictions > 0
        assert pool.misses >= 8
        # Kernel counters aggregate across evicted verifiers.
        assert pool.counters.computed > 0

    def test_evicted_query_recomputes_same_answer(self, monkeypatch):
        shrink_pool(monkeypatch, 1)
        service = make_service(self.built)
        first = similar_query(service, "adaptor")
        # Push the 'adaptor' verifier out of the pool, then re-ask.
        similar_query(service, "overlay")
        assert service.engine.verifier_pool.evictions > 0
        again = similar_query(service, "adaptor")
        assert again.payload["matches"] == first.payload["matches"]

    def test_stats_expose_verifier_section(self, monkeypatch):
        shrink_pool(monkeypatch, 4)
        service = make_service(self.built)
        similar_query(service, "adaptor")
        response = run(service.handle(Request("GET", "/stats")))
        assert response.status == 200
        verifier = response.payload["verifier"]
        assert verifier["shared_pool"] is True
        assert verifier["kernel"] == service.engine.verifier_pool.kernel.name
        assert verifier["max_verifiers"] == 4
        assert verifier["verifiers"] >= 1
        assert verifier["computed"] >= 0
        for counter in ("hits", "misses", "evictions", "memo_hits",
                        "prefilter_rejected"):
            assert isinstance(verifier[counter], int)

    def test_query_response_carries_verifier_delta(self):
        service = make_service(self.built)
        response = similar_query(service, "adaptor")
        cost = response.payload["cost"]
        assert "verifier" in cost
        assert cost["verifier"]["kernel"] == service.engine.verifier_pool.kernel.name
        assert cost["verifier"]["computed"] >= 0

    def test_forced_kernels_serve_identical_matches(self):
        with engines_verify_with(ReferenceKernel()):
            reference = make_service(self.built)
        with engines_verify_with(MyersKernel()):
            myers = make_service(self.built)
        for word in ("adaptor", "overlaps", "strategem"):
            a = similar_query(reference, word, d=2)
            b = similar_query(myers, word, d=2)
            assert a.payload["matches"] == b.payload["matches"]
        assert reference.engine.verifier_pool.kernel.name == "reference"
        assert myers.engine.verifier_pool.kernel.name.startswith("myers")
