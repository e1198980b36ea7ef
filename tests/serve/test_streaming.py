"""Streaming top-N: order and content match the serial operator exactly.

The service streams per-round batches of the iterative deepening; the
contract is that the concatenated stream reproduces
:func:`repro.query.operators.topn.top_n_string_nn`'s final ranked list
bit for bit — same oids, same matched strings, same distances, same
order, same truncation at N.  Verified in-process and over a real
socket (which also exercises the chunked HTTP framing end to end).
"""

from __future__ import annotations

import asyncio
import json

import pytest
from serve_utils import ATTRIBUTE, WORDS, post, run

from repro.serve.client import HttpClient
from repro.serve.http import ServiceServer


def _stream_matches(service, body):
    async def scenario():
        response = await service.handle(post("/query/topn/stream", body))
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/x-ndjson"
        return [json.loads(chunk) async for chunk in response.stream]

    return run(scenario())


def _rank_tuple(match_dict):
    return (match_dict["oid"], match_dict["matched"], match_dict["distance"])


class TestStreamingEquivalence:
    @pytest.mark.parametrize("search,n,max_distance", [
        ("adapte", 3, 5),
        ("adapte", 10, 3),
        ("overla", 4, 2),
        ("strategem", 2, 5),
        ("zzzzzz", 5, 2),  # no matches at all
    ])
    def test_stream_equals_serial_engine(
        self, service_factory, search, n, max_distance
    ):
        service = service_factory()
        serial = service.engine.top_n_string(
            ATTRIBUTE, search, n, max_distance
        )
        lines = _stream_matches(service, {
            "attribute": ATTRIBUTE, "search": search, "n": n,
            "max_distance": max_distance,
        })
        summary = lines[-1]
        streamed = [_rank_tuple(line["match"]) for line in lines[:-1]]
        expected = [
            (m.oid, m.matched, m.distance) for m in serial.matches
        ]
        assert streamed == expected
        assert summary["done"] is True
        assert summary["count"] == len(expected)
        assert summary["rounds"] == serial.rounds
        assert summary["cost"]["messages"] > 0

    def test_stream_objects_carry_full_payload(self, service_factory):
        service = service_factory()
        lines = _stream_matches(service, {
            "attribute": ATTRIBUTE, "search": "adapte", "n": 1,
        })
        match = lines[0]["match"]
        assert match["object"][ATTRIBUTE] == match["matched"]
        assert match["matched"] in WORDS

    def test_stream_is_incremental_per_round(self, service_factory):
        """Early matches arrive before later deepening rounds run."""
        service = service_factory()

        async def scenario():
            response = await service.handle(post("/query/topn/stream", {
                "attribute": ATTRIBUTE, "search": "adapted", "n": 10,
                "max_distance": 3,
            }))
            iterator = response.stream.__aiter__()
            first = json.loads(await iterator.__anext__())
            # The exact match (distance 0) streams out of round 0; the
            # engine has not exhausted the deepening yet.
            assert first["match"]["distance"] == 0
            rest = [json.loads(chunk) async for chunk in iterator]
            assert rest[-1]["done"] is True
            return None

        run(scenario())


class TestStreamingOverHttp:
    def test_socket_roundtrip_matches_serial(self, service_factory):
        service = service_factory()
        serial = service.engine.top_n_string(ATTRIBUTE, "adapte", 3, 5)
        expected = [(m.oid, m.matched, m.distance) for m in serial.matches]

        async def scenario():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            client = HttpClient("127.0.0.1", server.port)
            try:
                reply = await client.request(
                    "POST",
                    "/query/topn/stream",
                    {"attribute": ATTRIBUTE, "search": "adapte", "n": 3},
                )
                assert reply.status == 200
                assert (
                    reply.headers.get("transfer-encoding", "").lower()
                    == "chunked"
                )
                # The connection stays usable after a streamed response.
                health = await client.request("GET", "/healthz")
                assert health.status == 200
                return reply.lines
            finally:
                await client.close()
                await server.stop()

        lines = asyncio.run(scenario())
        streamed = [
            _rank_tuple(line["match"]) for line in lines if "match" in line
        ]
        assert streamed == expected
        assert lines[-1]["done"] is True


class TestHandlerCrashOverHttp:
    def test_crash_is_a_500_with_a_logged_traceback_and_the_connection_lives(
        self, service_factory, caplog
    ):
        """The client learns the exception's type only; the operator's
        log (``repro.serve``) gets the traceback; the same keep-alive
        connection serves the next request."""
        service = service_factory()

        def boom(*args, **kwargs):
            raise ZeroDivisionError("engine fell over")

        service.engine.select = boom

        async def scenario():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            client = HttpClient("127.0.0.1", server.port)
            try:
                crashed = await client.request(
                    "POST", "/query/exact", {"attribute": ATTRIBUTE, "value": "x"}
                )
                connection = client._writer
                health = await client.request("GET", "/healthz")
                assert client._writer is connection  # no reconnect
                return crashed, health
            finally:
                await client.close()
                await server.stop()

        with caplog.at_level("ERROR", logger="repro.serve"):
            crashed, health = asyncio.run(scenario())
        assert crashed.status == 500
        assert crashed.json() == {"error": "internal error: ZeroDivisionError"}
        assert health.status == 200
        (record,) = [r for r in caplog.records if r.name == "repro.serve"]
        assert "POST /query/exact" in record.getMessage()
        assert record.exc_info[0] is ZeroDivisionError
        assert "engine fell over" in caplog.text and "Traceback" in caplog.text
