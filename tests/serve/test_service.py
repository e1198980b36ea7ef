"""Endpoint behaviour of :class:`repro.serve.app.QueryService`.

Covers the JSON contract (matches + cost on every query response,
adaptive decisions, error statuses) and the degraded-fault mapping:
partial answers become HTTP 206 with the ``Completeness`` record's
key-space mass in the payload.
"""

from __future__ import annotations

from serve_utils import ATTRIBUTE, post, run

from repro import FaultPlan, StoreConfig
from repro.overlay.churn import ChurnController
from repro.serve.app import Request


class TestIntrospection:
    def test_healthz(self, service_factory):
        service = service_factory()
        response = run(service.handle(Request("GET", "/healthz")))
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["peers"] == 32
        assert response.payload["partitions"] >= 1
        assert response.payload["fault_mode"] == "strict"

    def test_stats_accumulate(self, service_factory):
        service = service_factory()
        run(service.handle(post(
            "/query/similar",
            {"search": "adaptor", "attribute": ATTRIBUTE, "d": 1},
        )))
        response = run(service.handle(Request("GET", "/stats")))
        assert response.status == 200
        engine_stats = response.payload["engine"]
        assert engine_stats["queries"] >= 1
        assert engine_stats["messages"] > 0
        assert response.payload["admission"]["admitted"] == 1
        assert response.payload["served_by_endpoint"]["/query/similar"] == 1

    def test_healthz_and_stats_bypass_admission(self, service_factory):
        from repro.serve.app import ServiceConfig

        service = service_factory(config=ServiceConfig(max_inflight=1))
        # Saturate nothing: introspection must not consume capacity.
        for __ in range(5):
            response = run(service.handle(Request("GET", "/healthz")))
            assert response.status == 200
        assert service.admission.admitted_total == 0


class TestQueryEndpoints:
    def test_exact_match(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/exact", {"attribute": ATTRIBUTE, "value": "overlay"},
        )))
        assert response.status == 200
        matches = response.payload["matches"]
        assert [m["matched"] for m in matches] == ["overlay"]
        assert response.payload["cost"]["messages"] > 0

    def test_similar_returns_known_neighbours(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/similar",
            {"search": "adaptor", "attribute": ATTRIBUTE, "d": 2},
        )))
        assert response.status == 200
        matched = sorted(m["matched"] for m in response.payload["matches"])
        assert "adapter" in matched
        cost = response.payload["cost"]
        assert cost["messages"] > 0 and cost["payload_bytes"] > 0
        assert sum(cost["by_phase"].values()) == cost["messages"]

    def test_similar_fixed_strategy_tallied(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/similar",
            {"search": "adaptor", "attribute": ATTRIBUTE, "d": 1,
             "strategy": "qgrams"},
        )))
        assert response.status == 200
        assert service.strategy_tally["qgrams"] == 1

    def test_adaptive_records_decisions(self, service_factory):
        service = service_factory(strategy="adaptive")
        response = run(service.handle(post(
            "/query/similar",
            {"search": "adaptor", "attribute": ATTRIBUTE, "d": 1},
        )))
        assert response.status == 200
        decisions = response.payload["decisions"]
        assert decisions, "adaptive mode must record a strategy decision"
        for decision in decisions:
            assert decision["chosen"] in ("strings", "qgrams", "qsamples")
            assert decision["predicted_messages"] > 0
            assert decision["actual_messages"] > 0

    def test_topn_matches_and_rounds(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/topn",
            {"attribute": ATTRIBUTE, "search": "adapte", "n": 3},
        )))
        assert response.status == 200
        assert len(response.payload["matches"]) == 3
        assert response.payload["rounds"] >= 1
        distances = [m["distance"] for m in response.payload["matches"]]
        assert distances == sorted(distances)

    def test_vql_roundtrip(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/vql",
            {"text": "SELECT ?w WHERE { (?o,word:text,?w) "
                     "FILTER (dist(?w,'adaptor') <= 2) }"},
        )))
        assert response.status == 200
        values = sorted(row["w"] for row in response.payload["rows"])
        assert "adapter" in values


class TestErrorMapping:
    def test_unknown_route_404(self, service_factory):
        service = service_factory()
        assert run(service.handle(Request("GET", "/nope"))).status == 404

    def test_wrong_method_405(self, service_factory):
        service = service_factory()
        assert run(service.handle(Request("GET", "/query/similar"))).status == 405

    def test_bad_json_400(self, service_factory):
        service = service_factory()
        response = run(service.handle(
            Request("POST", "/query/similar", body=b"{nope")
        ))
        assert response.status == 400
        assert "JSON" in response.payload["error"]

    def test_missing_field_400(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/similar", {"attribute": ATTRIBUTE, "d": 1},
        )))
        assert response.status == 400
        assert "'search'" in response.payload["error"]

    def test_negative_d_400(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/similar",
            {"search": "x", "attribute": ATTRIBUTE, "d": -1},
        )))
        assert response.status == 400

    def test_unknown_strategy_400(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/similar",
            {"search": "x", "attribute": ATTRIBUTE, "d": 1,
             "strategy": "warp-drive"},
        )))
        assert response.status == 400

    def test_vql_syntax_error_422(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/vql", {"text": "SELEKT nothing"},
        )))
        assert response.status == 422
        assert "error" in response.payload

    def test_oversized_body_413(self, service_factory):
        service = service_factory()
        body = b'{"pad": "' + b"x" * (1 << 21) + b'"}'
        response = run(service.handle(
            Request("POST", "/query/similar", body=body)
        ))
        assert response.status == 413


class TestDegradedResponses:
    """Dark partitions in degraded mode -> 206 + Completeness mass."""

    def _darkened_service(self, service_factory):
        service = service_factory(
            n_peers=48,
            seed=21,
            store_config=StoreConfig(seed=21, replication=3),
        )
        engine = service.engine
        engine.install_faults(FaultPlan.lossy(0.05, seed=4), mode="degraded")
        churn = ChurnController(engine.network, seed=1)
        report = churn.fail_fraction(0.5, protect_partitions=False)
        assert report.dark_partitions, "test needs at least one dark partition"
        return service

    def test_similar_partial_206_with_mass(self, service_factory):
        service = self._darkened_service(service_factory)
        response = run(service.handle(post(
            "/query/similar",
            {"search": "resilent", "attribute": ATTRIBUTE, "d": 2},
        )))
        assert response.status == 206
        assert response.payload["partial"] is True
        completeness = response.payload["completeness"]
        assert 0.0 <= completeness["fraction"] < 1.0
        assert completeness["dark_partitions"]

    def test_healthy_network_has_no_completeness_block(self, service_factory):
        service = service_factory()
        response = run(service.handle(post(
            "/query/similar",
            {"search": "resilent", "attribute": ATTRIBUTE, "d": 2},
        )))
        assert response.status == 200
        assert "completeness" not in response.payload

    def test_stream_carries_completeness(self, service_factory):
        import json as jsonlib

        service = self._darkened_service(service_factory)
        response = run(self._consume_stream(service))
        lines = [jsonlib.loads(chunk) for chunk in response]
        summary = lines[-1]
        assert summary["done"] is True
        assert summary["partial"] is True
        assert 0.0 <= summary["completeness"]["fraction"] < 1.0

    @staticmethod
    async def _consume_stream(service):
        response = await service.handle(post(
            "/query/topn/stream",
            {"attribute": ATTRIBUTE, "search": "resilent", "n": 3,
             "max_distance": 2},
        ))
        assert response.status == 200
        return [chunk async for chunk in response.stream]


class TestLifecycle:
    def test_close_is_idempotent_and_closes_engine(self, service_factory):
        service = service_factory()
        fanout_engine = service.engine
        service.close()
        service.close()
        # The engine is closed (its fan-out threads are gone), but the
        # engine object itself stays readable.
        assert fanout_engine.n_peers == 32

    def test_context_manager_closes(self, service_factory):
        with service_factory() as service:
            response = run(service.handle(Request("GET", "/healthz")))
            assert response.status == 200
        assert service._closed
