"""The coalescing reverse proxy.

One asyncio event loop on one thread does all the work. Each client
connection is a task that reads a request, parses it and answers it
without waiting for anything but a backend call. Windows are
``window_ms`` slots of the monotonic clock, counted from the proxy's
start; a request's window and its end are arithmetic on its admission
time, so nothing has to close a window.

- Sem mode, the default: the request's key is built at admission. A live
  cached reply is written at once. Otherwise ``_calls`` holds one
  ``_Call`` per key. A request that finds none leads: its connection task
  calls the backend over a bounded pool of keep-alive connections and
  resolves the call's future once, with the reply or fault. A request
  that finds the call in flight joins it (single flight) and awaits the
  future through ``asyncio.shield``, so a joiner that stops waiting cannot
  cancel it for the others. A 200 reply is reused until ``expires_at``,
  the end of its leader's window; a timer armed with ``loop.call_at`` for
  that end then drops it from the map. So a key makes one backend call
  per window, and one call in flight serves later windows too.
- Passthrough mode (``force_mode: "passthrough"``): the connection task
  forwards its request at once and writes the backend's reply; no key is
  built and nothing joins the call.

A client that closed its connection before its reply was ready gets none
and counts in ``dropped_disconnects``, as does a joiner that times out.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading
import time
from collections import deque
from itertools import count
from typing import NamedTuple, Optional

from . import http11, soap
from .config import ProxyConfig
from .dedup import DedupConfig, Deduplicator
from .metrics import MetricsCollector, export_csv_path

HEALTH_PATH = b"/_sem/health"
_XML = b"text/xml; charset=utf-8"
_JSON = b"application/json"
_STAGE_FAULT = soap.build_fault("Server", "proxy stage failure")
_TIMEOUT_FAULT = soap.build_fault("Server.Timeout", "pipeline timeout")

log = logging.getLogger(__name__)


class _Call(NamedTuple):
    """One backend call of a key: a future of its (status, body), and the
    end of its leader's window, when reuse of its reply ends."""
    future: asyncio.Future
    expires_at: int


class SemProxy:
    def __init__(self, listen_addr: tuple[str, int], config: ProxyConfig = None):
        self.config = config or ProxyConfig()
        cfg = self.config
        self.metrics = MetricsCollector()
        self.deduper = Deduplicator(
            DedupConfig(
                cache_enabled=cfg.cache_enabled,
                cache_ttl_ms=cfg.cache_ttl_ms,
                cache_capacity=cfg.cache_capacity,
                min_group_size=cfg.min_group_size,
            ),
            denylist=cfg.operation_denylist,
        )
        self._sem = cfg.force_mode != "passthrough"
        self.metrics.set_gate_mode("sem" if self._sem else "passthrough")
        self.backend = http11.BackendPool(
            cfg.backend_url, cfg.max_connections,
            cfg.connect_timeout_s, cfg.request_timeout_s)
        self.snapshots = deque(maxlen=7200)
        self.stage_failures = 0
        self._pipeline_timeout_s = cfg.request_timeout_s + 2.0
        self._ids = count(1)
        # window k spans [_epoch + k * _window_ns, _epoch + (k+1) * _window_ns)
        self._window_ns = max(1, int(cfg.window_ms * 1e6))
        self._epoch = time.monotonic_ns()
        # the last window that admitted a request, and how many windows did
        self._slot = -1
        self._windows = 0
        # requests awaiting a backend call, their own or one they joined
        self._waiting = 0
        # each key's call in flight, or its 200 reply reusable until expiry
        self._calls: dict[bytes, _Call] = {}
        self._snapshot_timer: Optional[asyncio.TimerHandle] = None
        self._connections: set[asyncio.Task] = set()
        # writers of connections waiting for their next request
        self._idle_connections: set[asyncio.StreamWriter] = set()
        self._closing = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._sock = socket.create_server(listen_addr, backlog=1024)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, daemon=True, name="sem-loop")

    # ------------------------------------------------------------------ serve

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> None:
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._start(), self._loop).result()

    def stop(self, metrics_csv: Optional[str] = None) -> None:
        """Graceful shutdown: stop accepting, answer every request in
        flight, then close client and backend connections."""
        if self._thread.is_alive():
            bound = self._pipeline_timeout_s + self.config.connect_timeout_s + 5
            done = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
            try:
                done.result(timeout=bound)
            except TimeoutError:
                log.error("shutdown did not finish within %.1f s", bound)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
        if metrics_csv:
            export_csv_path(list(self.snapshots), metrics_csv)

    def health(self) -> dict:
        """The counters served at ``/_sem/health``. Metrics are kept on the
        loop thread; a call from any other thread is run there."""
        if (self._loop.is_running()
                and threading.current_thread() is not self._thread):
            async def read() -> dict:
                return self._health()
            done = asyncio.run_coroutine_threadsafe(read(), self._loop)
            return done.result()
        return self._health()

    def _health(self) -> dict:
        data = self.metrics.counters()
        data["cache_entries"] = (
            len(self.deduper.cache) if self.deduper.cache is not None else 0)
        # the number of windows that admitted a request
        data["flushed_batches"] = self._windows
        data["in_flight"] = self._waiting
        data["stage_failures"] = self.stage_failures
        return data

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
            # whatever a timed-out shutdown left behind
            leftover = asyncio.all_tasks(self._loop)
            for task in leftover:
                task.cancel()
            self._loop.run_until_complete(
                asyncio.gather(*leftover, return_exceptions=True))
        finally:
            self._loop.close()

    async def _start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, sock=self._sock,
            limit=http11.MAX_HEADER_BYTES)
        self._snapshot_timer = self._loop.call_later(
            self.config.metrics_interval_s, self._take_snapshot)

    async def _shutdown(self) -> None:
        self._closing = True
        self._server.close()
        self._snapshot_timer.cancel()
        for writer in self._idle_connections:
            writer.close()  # the pending read sees end of stream
        # a request still being read is admitted later and answered, so
        # wait until every connection has finished
        while self._connections:
            await asyncio.wait(self._connections)
        await self.backend.close()
        await self._server.wait_closed()

    def _take_snapshot(self) -> None:
        self.snapshots.append(self.metrics.snapshot())
        self._snapshot_timer = self._loop.call_later(
            self.config.metrics_interval_s, self._take_snapshot)

    # -------------------------------------------------------------- ingestion

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self.metrics.record_connection_attempt()
        try:
            while not self._closing:
                self._idle_connections.add(writer)
                try:
                    async with asyncio.timeout(self.config.request_timeout_s):
                        request = await http11.read_request(reader, writer)
                except http11.BadRequest as exc:
                    writer.write(http11.build_reply(
                        exc.status, soap.build_fault("Client", str(exc)),
                        _XML, close=True))
                    return
                except (TimeoutError, asyncio.IncompleteReadError, OSError):
                    return  # stalled, idle too long, or gone mid-request
                finally:
                    self._idle_connections.discard(writer)
                if request is None:
                    return
                close = not request.keep_alive or self._closing
                arrival, admitted = None, False
                if request.method == b"POST":
                    arrival = time.monotonic_ns()
                    status, body, admitted = await self._handle_soap(
                        request.body, arrival)
                    ctype = _XML
                    if admitted and reader.at_eof():  # the client left
                        self.metrics.dropped_disconnects += 1
                        return
                else:
                    status, body, ctype = self._handle_other(request)
                try:
                    writer.write(http11.build_reply(status, body, ctype, close))
                    await writer.drain()
                except OSError:
                    if admitted:
                        self.metrics.dropped_disconnects += 1
                    return
                if admitted:
                    self.metrics.delivered += 1
                if arrival is not None:
                    self.metrics.record_response(
                        len(body), time.monotonic_ns() - arrival)
                if close:
                    return
        finally:
            self._connections.discard(task)
            writer.close()

    def _handle_other(self, request: http11.Request) -> tuple[int, bytes, bytes]:
        if request.method != b"GET":
            return 501, soap.build_fault("Client", "method not supported"), _XML
        if request.target != HEALTH_PATH:
            return 404, soap.build_fault("Client", "not found"), _XML
        return 200, json.dumps(self._health()).encode(), _JSON

    async def _handle_soap(self, raw: bytes,
                           arrival: int) -> tuple[int, bytes, bool]:
        """(status, body, admitted) for one SOAP POST. An admitted request
        counts as delivered once its reply is written."""
        self.metrics.record_request(len(raw))
        rid = next(self._ids)
        try:
            # the codec has checked that Content-Length equals len(raw)
            req = soap.parse_request(raw, {}, request_id=rid, arrival_time=arrival)
        except soap.SoapError as exc:
            self.metrics.faults += 1
            return 400, soap.build_fault(
                "Client", f"{type(exc).__name__}: {exc}"), False
        self.metrics.admitted += 1
        now = time.monotonic_ns()
        slot = (now - self._epoch) // self._window_ns
        if slot != self._slot:
            self._slot = slot
            self._windows += 1
        if not self._sem:
            return await self._forward(req, None, 0)
        try:
            key = self.deduper.key(req)
            reply = self._cached(key)
        except Exception:
            log.exception("admitting request %d failed", rid)
            self.stage_failures += 1
            return 500, _STAGE_FAULT, True
        # the interval's duplicate ratio: the share of sem requests that
        # repeat a key, by a cache hit, a join or a reuse
        if reply is not None:
            self.metrics.record_batch(1.0)
            return 200, reply, True
        call = self._calls.get(key)  # a None key never has one
        if call is not None:
            if not call.future.done():
                self.metrics.singleflight_joins += 1
                self.metrics.record_batch(1.0)
                return await self._join(call)
            # a done entry holds a 200; its expiry timer may fire late
            if now < call.expires_at:
                reply = call.future.result()[1]
                self._offer(key, reply)
                self.metrics.record_batch(1.0)
                return 200, reply, True
        self.metrics.record_batch(0.0)
        window_end = self._epoch + (slot + 1) * self._window_ns
        return await self._forward(req, key, window_end)

    def _cached(self, key: Optional[bytes]) -> Optional[bytes]:
        """A sem request's live cached reply. A request the cache does not
        answer counts as a sighting of its key."""
        cache = self.deduper.cache
        if key is None or cache is None:
            return None
        cached = cache.lookup(key, self.deduper.clock())
        if cached is not None:
            self.metrics.record_cache(hits=1, misses=0)
            return cached
        self.deduper.sight(key)
        self.metrics.record_cache(hits=0, misses=1)
        return None

    async def _join(self, call: _Call) -> tuple[int, bytes, bool]:
        """Await the reply of a backend call in flight. A joiner that times
        out gets no reply of the call, so it counts as dropped."""
        self._waiting += 1
        try:
            async with asyncio.timeout(self._pipeline_timeout_s):
                status, body = await asyncio.shield(call.future)
            return status, body, True
        except TimeoutError:
            self.metrics.faults += 1
            self.metrics.dropped_disconnects += 1
            return 504, _TIMEOUT_FAULT, False
        finally:
            self._waiting -= 1

    async def _forward(self, req: soap.SoapRequest, key: Optional[bytes],
                       window_end: int) -> tuple[int, bytes, bool]:
        """Call the backend for req. Joiners of the call get its reply, and
        after a 200 so do requests for key admitted before window_end, the
        end of req's window. A None key never shares its call."""
        call = None
        if key is not None:
            call = self._calls[key] = _Call(
                self._loop.create_future(), window_end)
        self._waiting += 1
        status, body = 504, _TIMEOUT_FAULT  # unless the call completes
        try:
            async with asyncio.timeout(self._pipeline_timeout_s):
                status, body = await self._call_backend(req)
        except TimeoutError:
            self.metrics.faults += 1
        except Exception:
            log.exception("forwarding request %d failed", req.request_id)
            self.stage_failures += 1
            status, body = 500, _STAGE_FAULT
        finally:
            self._waiting -= 1
            if call is not None:
                call.future.set_result((status, body))
                # reusable only while its window is open
                if status != 200 or time.monotonic_ns() >= window_end:
                    del self._calls[key]
                else:
                    # loop.time() is time.monotonic()
                    self._loop.call_at(
                        window_end / 1e9, self._expire, key, call)
        if call is not None and status == 200:
            self._offer(key, body)
        return status, body, True

    def _offer(self, key: bytes, body: bytes) -> None:
        try:
            self.deduper.offer(key, body)
        except Exception:
            log.exception("caching a reply failed")
            self.stage_failures += 1

    async def _call_backend(self, req: soap.SoapRequest) -> tuple[int, bytes]:
        self.metrics.record_backend_call()
        try:
            return await self.backend.post(
                req.raw_envelope, req.operation.encode())
        except http11.POST_ERRORS as exc:
            return 502, soap.build_fault(
                "Server.Unavailable", f"backend error: {type(exc).__name__}")

    def _expire(self, key: bytes, call: _Call) -> None:
        """End of call's window: drop its reply, unless a later call of key
        has taken its place."""
        if self._calls.get(key) is call:
            del self._calls[key]


def serve(listen_addr: tuple[str, int], config: ProxyConfig) -> SemProxy:
    """Start a proxy and return the running instance."""
    proxy = SemProxy(listen_addr, config)
    proxy.start()
    return proxy
