"""Request framing over a real socket: one reading of every body length.

A request whose body length two HTTP parsers could read two ways is the
request-smuggling shape (RFC 9112 sections 6.1 and 6.3).  The server
answers each with a 400 and closes the connection, so nothing after the
ambiguous head is ever read as a next request; a fresh connection is
served as usual.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.client import HttpClient
from repro.serve.http import ServiceServer

#: A body the health check ignores; its length is 2.
BODY = b"{}"

AMBIGUOUS = {
    "transfer-encoding beside content-length": (
        b"Content-Length: 2\r\nTransfer-Encoding: chunked\r\n"
    ),
    "transfer-encoding alone": b"Transfer-Encoding: chunked\r\n",
    "differing duplicate content-length": (
        b"Content-Length: 50\r\nContent-Length: 2\r\n"
    ),
    "signed content-length": b"Content-Length: +2\r\n",
    "underscored content-length": b"Content-Length: 0_2\r\n",
    "content-length list": b"Content-Length: 2, 2\r\n",
    "non-ascii digit content-length": "Content-Length: ²\r\n".encode(
        "latin-1"
    ),
}


async def _exchange(port: int, raw: bytes) -> tuple[bytes, bool]:
    """Send ``raw``; return the response's status line and whether the
    server closed the connection after it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10)
        status = head.split(b"\r\n", 1)[0]
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, __, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        await asyncio.wait_for(reader.readexactly(length), 10)
        try:
            closed = await asyncio.wait_for(reader.read(), 2) == b""
        except TimeoutError:  # kept alive, waiting for a next request
            closed = False
        return status, closed
    finally:
        writer.close()
        await writer.wait_closed()


def _serve(service, scenario):
    async def main():
        server = ServiceServer(service, "127.0.0.1", 0)
        await server.start()
        try:
            return await scenario(server.port)
        finally:
            await server.stop()

    return asyncio.run(main())


@pytest.mark.parametrize("headers", AMBIGUOUS.values(), ids=AMBIGUOUS)
def test_ambiguous_length_is_a_400_that_closes(service_factory, headers):
    raw = b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n" + BODY

    async def scenario(port):
        answer = await _exchange(port, raw)
        client = HttpClient("127.0.0.1", port)
        try:
            health = await client.request("GET", "/healthz")
        finally:
            await client.close()
        return answer, health

    (status, closed), health = _serve(service_factory(), scenario)
    assert status == b"HTTP/1.1 400 Bad Request"
    assert closed  # nothing after the ambiguous head is read as a request
    assert health.status == 200


def test_identical_duplicate_content_length_is_one_length(service_factory):
    """Repeating the same value frames the body one way only; the
    request is served and a ``Connection: close`` ends the exchange."""
    raw = (
        b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n"
        b"Connection: close\r\n\r\n" + BODY
    )
    status, closed = _serve(service_factory(), lambda port: _exchange(port, raw))
    assert status == b"HTTP/1.1 200 OK"
    assert closed
