"""Stdlib asyncio HTTP/1.1 server in front of :class:`QueryService`.

No third-party web framework is assumed (the container policy forbids
adding one); this is a deliberately small HTTP/1.1 implementation that
covers exactly what the service needs: GET/POST with JSON bodies,
``Content-Length`` responses, ``Transfer-Encoding: chunked`` for the
streaming top-N endpoint, and keep-alive connections (the load
generator reuses sockets at high arrival rates).

Usage::

    server = ServiceServer(service, host="127.0.0.1", port=0)
    await server.start()          # server.port holds the bound port
    ...
    await server.stop()

or, blocking, ``python -m repro.serve --peers 64 --words 2000``.
"""

from __future__ import annotations

import asyncio
import logging

from repro.serve.app import MAX_BODY_BYTES, QueryService, Request, Response

#: Per-request read timeout (seconds): a stalled client cannot pin a
#: connection handler forever.
READ_TIMEOUT = 30.0

#: Hard cap on the request head (request line + headers).
MAX_HEADER_BYTES = 16 * 1024

_STATUS_TEXT = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


_log = logging.getLogger("repro.serve")


class ProtocolError(Exception):
    """Malformed HTTP on the wire; the connection is closed after 400."""


class ServiceServer:
    """One listening socket dispatching into a :class:`QueryService`."""

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # ``Server.wait_closed`` does not wait for per-connection handler
        # tasks (pre-3.12 semantics); cancel and reap them explicitly so
        # shutdown never leaks tasks or logs spurious CancelledErrors.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()

    # -- connection handling -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    async with asyncio.timeout(READ_TIMEOUT):
                        request = await read_request(reader)
                except TimeoutError:
                    await write_response(
                        writer, Response(408, {"error": "request timeout"})
                    )
                    break
                except ProtocolError as exc:
                    await write_response(
                        writer, Response(400, {"error": str(exc)})
                    )
                    break
                if request is None:  # clean EOF between requests
                    break
                try:
                    response = await self.service.handle(request)
                except Exception as exc:  # handler crash -> 500, keep serving
                    # The response names only the exception's type; the
                    # traceback goes to the operator's log.
                    _log.exception(
                        "handler crashed on %s %s", request.method, request.path
                    )
                    response = Response(
                        500, {"error": f"internal error: {type(exc).__name__}"}
                    )
                keep_alive = (
                    request.headers.get("connection", "").lower() != "close"
                )
                try:
                    await write_response(writer, response)
                except Exception:
                    # Mid-stream failure (client gone, handler error while
                    # streaming): the chunked framing is unrecoverable.
                    break
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown: close the socket and exit quietly
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the wire; None on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, __ = parts
    path = target.split("?", 1)[0]
    headers: dict[str, str] = {}
    lengths: set[str] = set()
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length":
            lengths.add(value)
        headers[name] = value
    # Framing that two parsers could read two ways is refused outright
    # (RFC 9112 sections 6.1 and 6.3): the connection closes after the 400.
    if "transfer-encoding" in headers:
        raise ProtocolError("Transfer-Encoding is not supported")
    body = b""
    if lengths:
        if len(lengths) > 1:
            raise ProtocolError("conflicting Content-Length values")
        (value,) = lengths
        # 1*DIGIT only: int() alone would also take "+5" and "0_5".
        if not (value.isascii() and value.isdigit()):
            raise ProtocolError("bad Content-Length")
        try:
            length = int(value)
        except ValueError as exc:  # past int()'s digit limit
            raise ProtocolError("bad Content-Length") from exc
        if length > MAX_BODY_BYTES:
            raise ProtocolError("bad Content-Length")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ProtocolError("truncated request body") from exc
    return Request(method=method.upper(), path=path, headers=headers, body=body)


async def write_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    """Serialize one response (fixed-length JSON or chunked stream)."""
    status_text = _STATUS_TEXT.get(response.status, "Unknown")
    headers = {"Content-Type": "application/json"}
    headers.update(response.headers)
    if response.stream is None:
        body = response.body_bytes()
        headers["Content-Length"] = str(len(body))
        # One write, so one ``send`` and one segment for the client.
        writer.write(_head(response.status, status_text, headers) + body)
        await writer.drain()
        return
    headers["Transfer-Encoding"] = "chunked"
    try:
        writer.write(_head(response.status, status_text, headers))
        await writer.drain()
        async for chunk in response.stream:
            if not chunk:
                continue
            writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
            await writer.drain()
    finally:
        # aclose() releases the stream's admission ticket even when the
        # client disconnected before the first chunk or mid-stream.
        await response.stream.aclose()
    writer.write(b"0\r\n\r\n")
    await writer.drain()


def _head(status: int, status_text: str, headers: dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {status_text}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
