"""Mutation endpoints: writes between requests never leak stale answers.

The service runs queries and the engine's explicit write path one at a
time on its event-loop thread, so every response either predates a write
entirely or reflects all of it.  These tests mutate the store between
requests and assert (a) the next query's answer includes/excludes the
written data — no memo serves a pre-write answer — and (b) ``/stats``
reports the advanced store version token and the memo maintenance
counters.
"""

from __future__ import annotations

from serve_utils import ATTRIBUTE, run, post

from repro.serve.app import Request


def _matched(response) -> set[str]:
    return {m["matched"] for m in response.payload["matches"]}


def _similar(service, search: str, d: int = 1):
    return run(
        service.handle(
            post(
                "/query/similar",
                {"search": search, "attribute": ATTRIBUTE, "d": d},
            )
        )
    )


class TestMutateEndpoints:
    def test_insert_visible_to_next_query(self, service_factory):
        service = service_factory()
        first = _similar(service, "adaptive")
        assert first.status == 200
        assert "adaptivo" not in _matched(first)

        inserted = run(
            service.handle(
                post(
                    "/mutate/insert",
                    {
                        "triples": [
                            {
                                "oid": "w:new",
                                "attribute": ATTRIBUTE,
                                "value": "adaptivo",
                            }
                        ]
                    },
                )
            )
        )
        assert inserted.status == 200
        assert inserted.payload["applied"] > 0
        assert inserted.payload["requested"] == 1

        # The pre-write query populated the memos; a stale hit would
        # reproduce the old answer without "adaptivo".
        second = _similar(service, "adaptive")
        assert "adaptivo" in _matched(second)

    def test_delete_removes_from_next_answer(self, service_factory):
        service = service_factory()
        assert "adapted" in _matched(_similar(service, "adapter"))
        deleted = run(
            service.handle(
                post(
                    "/mutate/delete",
                    {
                        "triples": [
                            {
                                "oid": "w:0001",
                                "attribute": ATTRIBUTE,
                                "value": "adapted",
                            }
                        ]
                    },
                )
            )
        )
        assert deleted.status == 200
        assert deleted.payload["applied"] > 0
        assert "adapted" not in _matched(_similar(service, "adapter"))

    def test_stats_reflects_store_version(self, service_factory):
        service = service_factory()
        before = run(service.handle(Request("GET", "/stats")))
        token_before = before.payload["store_version"]
        assert token_before == service.engine.store_version

        mutated = run(
            service.handle(
                post(
                    "/mutate/insert",
                    {
                        "triples": [
                            {
                                "oid": "w:v",
                                "attribute": ATTRIBUTE,
                                "value": "versioned",
                            }
                        ]
                    },
                )
            )
        )
        assert mutated.payload["store_version"] > token_before

        after = run(service.handle(Request("GET", "/stats")))
        assert after.payload["store_version"] == mutated.payload["store_version"]
        assert set(after.payload["memos"]) == {"naive", "gram_scan", "fetch"}
        for counters in after.payload["memos"].values():
            assert counters.keys() == {
                "hits", "misses", "invalidations", "entries"
            }

    def test_responses_report_what_the_write_invalidated(self, service_factory):
        """Both endpoints say how many partitions took the write and how
        many cached records each memo dropped for it."""
        service = service_factory()
        grown = {"oid": "w:0001", "attribute": "word:lang", "value": "en"}
        assert "adapted" in _matched(_similar(service, "adapter"))  # caches w:0001

        def mutate(endpoint, triple):
            response = run(
                service.handle(post(f"/mutate/{endpoint}", {"triples": [triple]}))
            )
            assert response.status == 200
            return response.payload

        for endpoint in ("insert", "delete"):
            payload = mutate(endpoint, grown)
            assert payload["applied"] > 0
            assert 0 < payload["affected_partitions"] <= payload["applied"]
            assert payload["invalidated"].keys() == {"fetch", "gram_scan", "naive"}
            # The cached object gained (lost) a triple: its record, only.
            assert payload["invalidated"]["fetch"] == 1
            assert "adapted" in _matched(_similar(service, "adapter"))  # re-cached

        # Deleting what is not stored touches nothing.
        payload = mutate("delete", grown)
        assert payload["applied"] == payload["affected_partitions"] == 0
        assert payload["invalidated"] == {"fetch": 0, "gram_scan": 0, "naive": 0}

    def test_bad_triples_rejected(self, service_factory):
        service = service_factory()
        for payload in (
            {},
            {"triples": []},
            {"triples": ["nope"]},
            {"triples": [{"oid": "", "attribute": ATTRIBUTE, "value": "x"}]},
            {"triples": [{"oid": "w:x", "attribute": ATTRIBUTE, "value": True}]},
            {"triples": [{"oid": "w:x", "value": "x"}]},
        ):
            response = run(service.handle(post("/mutate/insert", payload)))
            assert response.status == 400, payload
