"""Minimal HTTP/1.1 over asyncio streams: the proxy's server-side request
codec and its keep-alive client pool toward the backend.

Server side: request line, headers, ``Content-Length`` bodies up to
``MAX_BODY_BYTES``, keep-alive, ``Connection: close`` and HTTP/1.0. Bodies
framed any other way are refused (RFC 9112 §6.3). Each reply is encoded as
one buffer, so it leaves in a single send. Client side: ``Content-Length``,
chunked and read-until-close response bodies.
"""

from __future__ import annotations

import asyncio
from http import HTTPStatus
from typing import NamedTuple, Optional
from urllib.parse import urlsplit

MAX_HEADER_BYTES = 64 * 1024  # request line plus header block
MAX_BODY_BYTES = 8 * 1024 * 1024  # a request body is read whole into memory
_CRLF2 = b"\r\n\r\n"
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class BadRequest(Exception):
    """A request the server answers with ``status`` and then hangs up on."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Request(NamedTuple):
    method: bytes
    target: bytes
    keep_alive: bool
    body: bytes


def _parse_headers(lines: list[bytes]) -> dict[bytes, bytes]:
    """Header fields by lower-cased name; repeats are comma-joined."""
    headers: dict[bytes, bytes] = {}
    for line in lines:
        name, sep, value = line.partition(b":")
        name = name.strip().lower()
        if not sep or not name:
            raise BadRequest(400, "malformed header line")
        value = value.strip()
        prior = headers.get(name)
        headers[name] = value if prior is None else prior + b"," + value
    return headers


def _keep_alive(version: bytes, connection: bytes) -> bool:
    tokens = {t.strip() for t in connection.lower().split(b",")}
    if version == b"HTTP/1.1":
        return b"close" not in tokens
    return b"keep-alive" in tokens


async def read_request(reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> Optional[Request]:
    """Read one request; None on a clean end of stream between requests.

    Raises BadRequest for input the codec refuses, ``IncompleteReadError``
    when the peer hangs up mid-request. The reader's limit must be
    ``MAX_HEADER_BYTES``: a longer header block fails with 400.
    """
    try:
        head = await reader.readuntil(_CRLF2)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    except asyncio.LimitOverrunError:
        raise BadRequest(400, "header block too large") from None
    lines = head[:-4].split(b"\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or parts[2] not in (b"HTTP/1.1", b"HTTP/1.0"):
        raise BadRequest(400, "malformed request line")
    method, target, version = parts
    headers = _parse_headers(lines[1:])
    if b"transfer-encoding" in headers:
        raise BadRequest(411, "only Content-Length bodies are accepted")
    length = headers.get(b"content-length", b"0")
    if not length.isdigit():  # negative, repeated with a comma, or not a number
        raise BadRequest(400, "invalid Content-Length")
    digits = length.lstrip(b"0") or b"0"
    # int() refuses numbers over 4300 digits: judge a long one by its length
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise BadRequest(413, "request body too large")
    length = int(digits)
    if length and headers.get(b"expect", b"").lower() == b"100-continue":
        writer.write(_CONTINUE)
    body = await reader.readexactly(length) if length else b""
    return Request(method, target,
                   _keep_alive(version, headers.get(b"connection", b"")), body)


_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode()
                 for s in HTTPStatus}


def build_reply(status: int, body: bytes, content_type: bytes,
                close: bool = False) -> bytes:
    """Status line, headers and body in one buffer."""
    line = _STATUS_LINES.get(status) or f"HTTP/1.1 {status} \r\n".encode()
    return b"".join((
        line, b"Content-Type: ", content_type,
        b"\r\nContent-Length: ", str(len(body)).encode(),
        b"\r\nConnection: close\r\n\r\n" if close else b"\r\n\r\n", body))


# ------------------------------------------------------------------ client

class BadResponse(Exception):
    """The backend's reply is not HTTP/1.x that this codec can frame."""


# what BackendPool.post raises when a call fails
POST_ERRORS = (OSError, TimeoutError, asyncio.IncompleteReadError,
               asyncio.LimitOverrunError, BadResponse)


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    chunks = []
    while True:
        size_line = await reader.readuntil(b"\r\n")
        try:
            size = int(size_line.split(b";", 1)[0], 16)
        except ValueError:
            raise BadResponse("malformed chunk size") from None
        if size == 0:
            while await reader.readuntil(b"\r\n") != b"\r\n":  # trailers
                pass
            return b"".join(chunks)
        chunks.append(await reader.readexactly(size))
        await reader.readexactly(2)


async def read_response(reader: asyncio.StreamReader) -> tuple[int, bytes, bool]:
    """Read one response: (status, body, connection reusable)."""
    head = await reader.readuntil(_CRLF2)
    lines = head[:-4].split(b"\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or not parts[1].isdigit():
        raise BadResponse(f"malformed status line {lines[0][:80]!r}")
    version, status = parts[0], int(parts[1])
    try:
        headers = _parse_headers(lines[1:])
    except BadRequest:
        raise BadResponse("malformed header line") from None
    keep = _keep_alive(version, headers.get(b"connection", b""))
    if status in (204, 304) or 100 <= status < 200:
        return status, b"", keep
    if b"chunked" in headers.get(b"transfer-encoding", b"").lower():
        return status, await _read_chunked(reader), keep
    length = headers.get(b"content-length")
    if length is None:
        return status, await reader.read(), False
    if not length.isdigit():
        raise BadResponse("invalid Content-Length")
    return status, await reader.readexactly(int(length)), keep


class BackendPool:
    """Keep-alive connections to one ``http://`` backend, at most ``limit``
    open at once. A call waits for a free slot, then reuses the most
    recently idled connection or opens a new one."""

    def __init__(self, url: str, limit: int, connect_timeout_s: float,
                 request_timeout_s: float):
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"backend URL must be http://host[:port]/path: {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._head = (f"POST {path} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
                      "Content-Type: text/xml; charset=utf-8\r\n").encode()
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self._slots = asyncio.Semaphore(limit)
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def _connection(self):
        while self._idle:
            reader, writer = self._idle.pop()
            if not reader.at_eof() and not writer.is_closing():
                return reader, writer
            writer.close()
        async with asyncio.timeout(self.connect_timeout_s):
            return await asyncio.open_connection(self.host, self.port)

    async def post(self, body: bytes, soap_action: bytes) -> tuple[int, bytes]:
        """POST a SOAP envelope; a failed call raises one of ``POST_ERRORS``."""
        async with self._slots:
            reader, writer = await self._connection()
            try:
                async with asyncio.timeout(self.request_timeout_s):
                    writer.write(b"".join((
                        self._head, b'SOAPAction: "', soap_action,
                        b'"\r\nContent-Length: ', str(len(body)).encode(),
                        b"\r\n\r\n", body)))
                    status, data, keep = await read_response(reader)
            except BaseException:  # connection state unknown: never reuse
                writer.close()
                raise
            if keep:
                self._idle.append((reader, writer))
            else:
                writer.close()
            return status, data

    async def close(self) -> None:
        idle, self._idle = self._idle, []
        for _, writer in idle:
            writer.close()
        for _, writer in idle:
            try:
                await writer.wait_closed()
            except OSError:
                pass
