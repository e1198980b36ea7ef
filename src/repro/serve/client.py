"""Minimal asyncio HTTP/1.1 client for driving the service over sockets.

The benchmark's load generator (``perf/serve_http.py``) and the
socket-level tests need
a client; the container has no third-party HTTP library, so this module
implements the narrow slice the service speaks: JSON POST/GET with
``Content-Length`` responses and chunked NDJSON streams.  One
:class:`HttpClient` holds one keep-alive connection and issues requests
sequentially; the open-loop load generator opens a small pool of them.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field


class ClientError(Exception):
    """Malformed response from the server (or a dropped connection)."""


@dataclass
class HttpReply:
    """One decoded response."""

    status: int
    headers: dict[str, str]
    body: bytes
    #: Decoded NDJSON lines for chunked streaming responses.
    lines: list[dict] = field(default_factory=list)

    def json(self) -> dict:
        return json.loads(self.body) if self.body else {}


class HttpClient:
    """One keep-alive connection to the service."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            return
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> HttpReply:
        """Issue one request; reconnects once on a stale keep-alive."""
        body = json.dumps(payload).encode() if payload is not None else b""
        for attempt in (0, 1):
            await self._connect()
            try:
                return await self._roundtrip(method, path, body)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    async def _roundtrip(self, method: str, path: str, body: bytes) -> HttpReply:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()

        status_line = (await self._reader.readline()).decode("latin-1")
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ClientError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = (await self._reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, __, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

        if headers.get("transfer-encoding", "").lower() == "chunked":
            raw = await self._read_chunked()
            lines = [
                json.loads(line)
                for line in raw.decode().splitlines()
                if line.strip()
            ]
            return HttpReply(status, headers, raw, lines)
        length = int(headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        return HttpReply(status, headers, body)

    async def _read_chunked(self) -> bytes:
        chunks: list[bytes] = []
        while True:
            size_line = (await self._reader.readline()).decode("latin-1").strip()
            try:
                size = int(size_line.split(";", 1)[0], 16)
            except ValueError as exc:
                raise ClientError(f"bad chunk size: {size_line!r}") from exc
            if size == 0:
                await self._reader.readline()  # trailing CRLF
                return b"".join(chunks)
            chunks.append(await self._reader.readexactly(size))
            await self._reader.readexactly(2)  # chunk CRLF
