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
import socket
import struct

import pytest
from serve_utils import ATTRIBUTE, WORDS, post, run

from repro.serve.app import ServiceConfig
from repro.serve.client import HttpClient
from repro.serve.http import ServiceServer

STREAM_BODY = {"attribute": ATTRIBUTE, "search": "adapte", "n": 3}


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


class TestStreamAdmission:
    """An open stream holds an admission slot; every way it ends frees it."""

    def test_stream_closed_before_its_first_chunk_frees_its_slot(
        self, service_factory
    ):
        service = service_factory(config=ServiceConfig(max_inflight=2))

        async def scenario():
            for __ in range(2):
                response = await service.handle(
                    post("/query/topn/stream", STREAM_BODY)
                )
                assert response.status == 200
                await response.stream.aclose()
            assert service.admission.inflight == 0
            return await service.handle(post("/query/similar", {
                "search": "adaptor", "attribute": ATTRIBUTE, "d": 1,
            }))

        assert run(scenario()).status == 200

    def test_stream_closed_mid_way_frees_its_slot(self, service_factory):
        service = service_factory(config=ServiceConfig(max_inflight=1))

        async def scenario():
            response = await service.handle(post(
                "/query/topn/stream", {**STREAM_BODY, "search": "adapted"}
            ))
            chunks = response.stream.__aiter__()
            await chunks.__anext__()
            assert service.admission.inflight == 1
            await response.stream.aclose()
            assert service.admission.inflight == 0

        run(scenario())

    def test_client_that_resets_after_sending_frees_its_slot(
        self, service_factory
    ):
        """A client sends the stream request and resets the connection at
        once; whether the server fails on the head or on a chunk, the slot
        comes back and later requests are not refused for capacity."""
        service = service_factory(config=ServiceConfig(max_inflight=2))
        body = json.dumps(STREAM_BODY).encode()
        raw = (
            "POST /query/topn/stream HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body

        async def reset_after_sending(server):
            __, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(raw)
            await writer.drain()
            # Linger 0: close() sends RST instead of FIN.
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            writer.close()
            await writer.wait_closed()
            for __ in range(500):
                if not server._connections:
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("the server never let go of the connection")

        async def scenario():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            client = HttpClient("127.0.0.1", server.port)
            try:
                for __ in range(3):
                    await reset_after_sending(server)
                reply = await client.request("POST", "/query/similar", {
                    "search": "adaptor", "attribute": ATTRIBUTE, "d": 1,
                })
                stats = await client.request("GET", "/stats")
                return reply, stats.json()["admission"]
            finally:
                await client.close()
                await server.stop()

        reply, admission = asyncio.run(scenario())
        assert reply.status == 200
        assert admission["inflight"] == 0
        assert admission["rejected_capacity"] == 0


class TestEngineLock:
    def test_request_during_an_open_stream_waits_for_its_end(
        self, service_factory
    ):
        """An open stream is the one engine window that spans awaits: a
        request started between its chunks runs after its last round, so
        both answers equal the ones the two requests give one after the
        other."""
        stream_body = {
            "attribute": ATTRIBUTE, "search": "adapted", "n": 10,
            "max_distance": 3,
        }
        similar_body = {"search": "adaptor", "attribute": ATTRIBUTE, "d": 2}

        async def in_turn(service):
            response = await service.handle(
                post("/query/topn/stream", stream_body)
            )
            lines = [json.loads(chunk) async for chunk in response.stream]
            similar = await service.handle(post("/query/similar", similar_body))
            return lines, similar

        async def overlapped(service):
            response = await service.handle(
                post("/query/topn/stream", stream_body)
            )
            chunks = response.stream.__aiter__()
            lines = [json.loads(await chunks.__anext__())]
            task = asyncio.create_task(
                service.handle(post("/query/similar", similar_body))
            )
            for __ in range(3):
                await asyncio.sleep(0)
            lines += [json.loads(chunk) async for chunk in chunks]
            return lines, await task

        serial_lines, serial_similar = run(in_turn(service_factory()))
        lines, similar = run(overlapped(service_factory()))
        assert serial_lines[-1]["rounds"] > 1
        assert lines == serial_lines
        assert similar.status == serial_similar.status == 200
        assert similar.payload == serial_similar.payload


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
        engine = service.engine

        def boom_once(*args, **kwargs):
            del engine.select  # the next call reaches the real engine
            raise ZeroDivisionError("engine fell over")

        engine.select = boom_once
        exact = {"attribute": ATTRIBUTE, "value": "overlay"}

        async def scenario():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            client = HttpClient("127.0.0.1", server.port)
            try:
                crashed = await client.request("POST", "/query/exact", exact)
                connection = client._writer
                health = await client.request("GET", "/healthz")
                # The crash released the engine lock and its admission
                # ticket: an engine-backed request runs, nothing in flight.
                after = await client.request("POST", "/query/exact", exact)
                stats = await client.request("GET", "/stats")
                assert client._writer is connection  # no reconnect
                return crashed, health, after, stats
            finally:
                await client.close()
                await server.stop()

        with caplog.at_level("ERROR", logger="repro.serve"):
            crashed, health, after, stats = asyncio.run(scenario())
        assert crashed.status == 500
        assert crashed.json() == {"error": "internal error: ZeroDivisionError"}
        assert health.status == 200
        assert after.status == 200
        assert [m["matched"] for m in after.json()["matches"]] == ["overlay"]
        admission = stats.json()["admission"]
        assert admission["inflight"] == 0
        assert admission["completed"] == admission["admitted"] == 2
        (record,) = [r for r in caplog.records if r.name == "repro.serve"]
        assert "POST /query/exact" in record.getMessage()
        assert record.exc_info[0] is ZeroDivisionError
        assert "engine fell over" in caplog.text and "Traceback" in caplog.text
