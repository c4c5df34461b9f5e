"""The HTTP/1.1 codec. Requests reach a running proxy over raw sockets:
hostile or broken framing is answered or cut off within a bounded time.
Backend responses are framed from canned bytes."""

import asyncio
import socket
import time

import pytest

from conftest import running_proxy
from semproxy import http11, soap
from semproxy.config import ProxyConfig

BODY = soap.build_request_envelope("Search", ["x"])


@pytest.fixture
def proxy(fast_backend):
    with running_proxy(fast_backend, ProxyConfig(
            window_ms=5, request_timeout_s=0.3)) as p:
        yield p


def exchange(proxy, data: bytes, within_s: float = 1.0) -> bytes:
    """Send ``data``; everything received until the proxy closes the
    connection, which must happen within ``within_s``."""
    deadline = time.monotonic() + within_s
    chunks = []
    with socket.create_connection(proxy.address, timeout=within_s) as s:
        s.sendall(data)
        while True:
            s.settimeout(max(deadline - time.monotonic(), 0.001))
            chunk = s.recv(65536)  # socket.timeout if the proxy holds on
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post(body: bytes, extra: bytes = b"", version: bytes = b"HTTP/1.1") -> bytes:
    return (b"POST / " + version + b"\r\nHost: proxy\r\n" + extra
            + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body)


@pytest.mark.parametrize("length", [b"-1", b"abc", b"1e3", b""])
def test_invalid_content_length_gets_400_and_close(proxy, length):
    data = (b"POST / HTTP/1.1\r\nHost: proxy\r\nContent-Length: " + length
            + b"\r\n\r\n" + BODY)
    reply = exchange(proxy, data)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"Fault" in reply


def test_oversized_header_block_gets_400_and_close(proxy):
    data = b"POST / HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
    reply = exchange(proxy, data)
    assert reply.startswith(b"HTTP/1.1 400 ")


def test_chunked_body_gets_411_and_close(proxy):
    data = (b"POST / HTTP/1.1\r\nHost: proxy\r\nTransfer-Encoding: chunked"
            b"\r\n\r\n5\r\nhello\r\n0\r\n\r\n")
    assert exchange(proxy, data).startswith(b"HTTP/1.1 411 ")


@pytest.mark.parametrize("length", [str(http11.MAX_BODY_BYTES + 1).encode(),
                                    b"9" * 5000])
def test_oversized_body_gets_413_before_it_is_read(proxy, length):
    # no body follows: the cap is applied to the declared length alone
    data = b"POST / HTTP/1.1\r\nHost: proxy\r\nContent-Length: " + length + b"\r\n\r\n"
    assert exchange(proxy, data).startswith(b"HTTP/1.1 413 ")
    assert proxy.health()["admitted"] == 0


@pytest.mark.parametrize("partial", [
    b"POST / HTTP/1.1\r\nHost: pro",                            # mid-headers
    b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n<soap:Env",  # mid-body
])
def test_stalled_client_is_dropped(proxy, partial):
    assert exchange(proxy, partial) == b""
    assert proxy.health()["admitted"] == 0


def test_connection_close_and_http10_end_the_connection(proxy):
    for data in (post(BODY, b"Connection: close\r\n"),
                 post(BODY, version=b"HTTP/1.0")):
        reply = exchange(proxy, data)
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1 ") == 1


def test_keep_alive_serves_consecutive_requests(proxy):
    with socket.create_connection(proxy.address, timeout=1.0) as s:
        s.sendall(post(BODY) + post(BODY))
        data = b""
        while data.count(b"</soap:Envelope>") < 2:
            chunk = s.recv(65536)
            assert chunk, "proxy closed a keep-alive connection"
            data += chunk
    assert data.count(b"HTTP/1.1 200 ") == 2


def read_response(data: bytes):
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await http11.read_response(reader)
    return asyncio.run(read())


@pytest.mark.parametrize("data, expected", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
     (200, b"hello", True)),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Trailer: 1\r\n\r\n",
     (200, b"hello world", True)),
    (b"HTTP/1.1 500 Internal Server Error\r\n\r\nboom", (500, b"boom", False)),
    (b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
     (200, b"ok", False)),
    (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", (200, b"ok", False)),
])
def test_backend_response_framing(data, expected):
    assert read_response(data) == expected


@pytest.mark.parametrize("data", [
    b"ICY 200 OK\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\nok",
])
def test_malformed_backend_response_rejected(data):
    with pytest.raises(http11.BadResponse):
        read_response(data)
