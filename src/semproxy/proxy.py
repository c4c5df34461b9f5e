"""The coalescing reverse proxy.

One asyncio event loop on one thread does all the work. Each client
connection is a task that reads a request, parses it and admits it into the
window collector. A timer armed with ``loop.call_at`` only while a window
holds requests closes the window at its epoch-aligned end. The selector
rounds a timeout up to whole milliseconds, so the timer is armed
``_TIMER_LEAD_NS`` early and closes the window as of its end: the close
lands within about half a millisecond of the end, either side. Each window
runs in one mode, set by the gate's decision when the previous window
closed; a mode can therefore change only at a window boundary.

- Sem mode: the request's key is built at admission, and the request is
  answered without waiting for its window. A live cached reply is written
  at once, and so is the 200 reply of a call its key made earlier in the
  same window. Otherwise, if a backend call for the key is in flight, the
  request joins it (single flight): its future is resolved with the
  call's reply, or fault, when the call completes. A future can be
  resolved once, so every admitted request receives exactly one response.
  Any other request leads: its connection task calls the backend over a
  bounded pool of keep-alive connections. So a key makes one backend call
  per window, and one call in flight serves later windows too. The
  window's close feeds the duplicate ratio of its keys to the gate and
  forgets the replies of its calls.
- Passthrough mode: the connection task forwards its request at once and
  writes the backend's reply; nothing joins the call. The window only
  measures: when it closes, the duplicate ratio of its keys goes to the
  gate, which needs it to re-enter sem mode.
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
from typing import Optional

from . import http11, soap
from .config import ProxyConfig
from .dedup import DedupConfig, Deduplicator, duplicate_ratio
from .gate import AdaptiveGate, GateConfig, GateMode, GateObservation
from .metrics import MetricsCollector, export_csv_path
from .windowing import WindowBatch, WindowCollector

HEALTH_PATH = b"/_sem/health"
_XML = b"text/xml; charset=utf-8"
_JSON = b"application/json"
_STAGE_FAULT = soap.build_fault("Server", "proxy stage failure")
_TIMEOUT_FAULT = soap.build_fault("Server.Timeout", "pipeline timeout")
# the window timer fires this long before the window's end: half the
# selector's 1 ms resolution, which rounds every timeout up
_TIMER_LEAD_NS = 500_000

log = logging.getLogger(__name__)


class SemProxy:
    def __init__(self, listen_addr: tuple[str, int], config: ProxyConfig = None):
        self.config = config or ProxyConfig()
        cfg = self.config
        self.metrics = MetricsCollector()
        # batches are taken off the queue as soon as they are emitted, so
        # it never holds more than one
        self.collector = WindowCollector(
            window_ns=int(cfg.window_ms * 1e6),
            max_batch_size=cfg.max_batch_size,
            queue_depth=0,
        )
        self.deduper = Deduplicator(
            DedupConfig(
                cache_enabled=cfg.cache_enabled,
                cache_ttl_ms=cfg.cache_ttl_ms,
                cache_capacity=cfg.cache_capacity,
                min_group_size=cfg.min_group_size,
            ),
            denylist=cfg.operation_denylist,
        )
        self.gate = AdaptiveGate(GateConfig(
            enter_threshold=cfg.gate_enter,
            exit_threshold=cfg.gate_exit,
            alpha=cfg.gate_alpha,
            overhead_budget_pct=cfg.overhead_budget_pct,
        ))
        forced = cfg.force_mode
        self._forced_mode = None if not forced else (
            GateMode.SEM if forced == "sem" else GateMode.PASSTHROUGH)
        self.metrics.set_gate_mode(self._mode().value)
        self.backend = http11.BackendPool(
            cfg.backend_url, cfg.max_connections,
            cfg.connect_timeout_s, cfg.request_timeout_s)
        self.snapshots = deque(maxlen=7200)
        self.stage_failures = 0
        self._pipeline_timeout_s = (
            cfg.request_timeout_s + cfg.window_ms / 250.0 + 2.0)
        self._ids = count(1)
        # future of each request joined to a call whose client still waits
        self._in_flight: dict[int, asyncio.Future] = {}
        # requests awaiting the backend call they made
        self._forwarding = 0
        # key of each backend call in flight -> ids of the requests it
        # answers, its own first
        self._pending: dict[bytes, list[int]] = {}
        # 200 reply of each key whose call completed in the open window
        self._replies: dict[bytes, bytes] = {}
        # key of each sem request in an open window, built at admission and
        # popped when the window closes
        self._keys: dict[int, Optional[bytes]] = {}
        self._window_timer: Optional[asyncio.TimerHandle] = None
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
        """Graceful shutdown: stop accepting, close the open window, answer
        every request in flight, then close client and backend connections."""
        if self._thread.is_alive():
            bound = (self._pipeline_timeout_s + self.config.connect_timeout_s
                     + 5.0)
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
        data["flushed_batches"] = self.collector.flushed_batches
        data["in_flight"] = len(self._in_flight) + self._forwarding
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
        self.collector.flush(time.monotonic_ns() + self.collector.window_ns)
        self._drain_batches()
        # a request still being read is admitted later and closes its own
        # window, so wait until every connection has finished
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
        # admit closes every window that has ended, and _drain_batches
        # processes it, which sets the mode of the window req is in
        self.collector.admit(req, time.monotonic_ns())
        self._drain_batches()
        self._arm_window_timer()
        self.metrics.record_window_wait(0)
        key = None
        if self._mode() is GateMode.SEM:
            try:
                key = self._keys[rid] = self.deduper.key(req)
                reply = self._reply_at_admission(key)
            except Exception:
                log.exception("admitting request %d failed", rid)
                self.stage_failures += 1
                return 500, _STAGE_FAULT, True
            if reply is not None:
                return 200, reply, True
            members = self._pending.get(key)
            if members is not None:
                self.metrics.singleflight_joins += 1
                return await self._join(rid, members)
        return await self._forward(req, key)

    def _reply_at_admission(self, key: Optional[bytes]) -> Optional[bytes]:
        """A sem request's reply from the cache, or from the call its key
        made in this window. A request the cache does not answer counts as
        a sighting of its key."""
        if key is None:  # never shares a reply
            return None
        cache = self.deduper.cache
        if cache is not None:
            cached = cache.lookup(key, self.deduper.clock())
            if cached is not None:
                self.metrics.record_cache(hits=1, misses=0)
                return cached
            self.deduper.sight(key)
            self.metrics.record_cache(hits=0, misses=1)
        reply = self._replies.get(key)
        if reply is not None:
            self._offer(key, reply)
        return reply

    async def _join(self, rid: int,
                    members: list[int]) -> tuple[int, bytes, bool]:
        """Await the reply of the backend call in flight for rid's key."""
        future = self._in_flight[rid] = self._loop.create_future()
        members.append(rid)
        try:
            async with asyncio.timeout(self._pipeline_timeout_s):
                status, body = await future
            return status, body, True
        except TimeoutError:
            # a reply that comes later finds no client: dropped_disconnects
            self.metrics.faults += 1
            return 504, _TIMEOUT_FAULT, False
        finally:
            del self._in_flight[rid]

    async def _forward(self, req: soap.SoapRequest,
                       key: Optional[bytes]) -> tuple[int, bytes, bool]:
        """Call the backend for req. Requests that join the call while it
        is in flight get the same reply; once it has completed with a 200,
        so do the rest of its window's requests for the key. A None key
        never shares its call."""
        members = [req.request_id]
        window = self.collector.flushed_batches
        if key is not None:
            self._pending[key] = members
        self._forwarding += 1
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
            self._forwarding -= 1
            if key is not None:
                del self._pending[key]
                for rid in members[1:]:
                    self._deliver(rid, status, body)
        if key is not None and status == 200:
            if window == self.collector.flushed_batches:  # still open
                self._replies[key] = body
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
        t0 = time.monotonic_ns()
        try:
            status, body = await self.backend.post(
                req.raw_envelope, req.operation.encode())
        except http11.POST_ERRORS as exc:
            return 502, soap.build_fault(
                "Server.Unavailable", f"backend error: {type(exc).__name__}")
        self.gate.note_service_time(time.monotonic_ns() - t0)
        return status, body

    def _deliver(self, request_id: int, status: int, body: bytes) -> None:
        future = self._in_flight.get(request_id)
        if future is None:  # its client stopped waiting
            self.metrics.dropped_disconnects += 1
        elif future.done():
            self.metrics.duplicate_deliveries += 1
        else:
            future.set_result((status, body))

    # -------------------------------------------------------------- windowing

    def _arm_window_timer(self) -> None:
        if self._window_timer is None:
            end_ns = self.collector.open_window_end
            if end_ns is not None:
                # loop.time() is time.monotonic(), the collector's clock
                self._window_timer = self._loop.call_at(
                    (end_ns - _TIMER_LEAD_NS) / 1e9, self._close_window,
                    end_ns)

    def _close_window(self, end_ns: int) -> None:
        """Close the window ending at end_ns, even if the timer fired
        before it; a request admitted before end_ns then opens the next
        window."""
        self._window_timer = None
        self.collector.flush(max(time.monotonic_ns(), end_ns))
        self._drain_batches()
        self._arm_window_timer()

    def _drain_batches(self) -> None:
        out = self.collector.out_queue
        while not out.empty():
            batch = out.get_nowait()
            self._replies.clear()
            try:
                self._measure(batch)
            except Exception:
                # every request was forwarded or answered at admission
                log.exception("batch %d failed", batch.batch_id)
                self.stage_failures += 1

    def _mode(self) -> GateMode:
        """Mode of the open window: the forced one, else the gate's
        decision when the previous window closed."""
        return self._forced_mode or self.gate.mode

    def _measure(self, batch: WindowBatch) -> None:
        """Feed one closed window's duplicate ratio to the gate and set the
        next window's mode. A sem window reads the keys built at
        admission."""
        t0 = time.monotonic_ns()
        if self._mode() is GateMode.SEM:
            keys = [self._keys.pop(r.request_id, None) for r in batch.requests]
        else:
            keys = [self.deduper.key(req) for req in batch.requests]
        ratio = duplicate_ratio(keys)
        analysis_ns = time.monotonic_ns() - t0
        self.gate.observe(GateObservation(
            batch_id=batch.batch_id,
            duplicate_ratio=ratio,
            analysis_cost_ns=analysis_ns,
            batch_size=len(batch.requests),
        ))
        if self._forced_mode is None:
            self.metrics.set_gate_mode(self.gate.decide().mode.value)
        self.metrics.record_batch(ratio)


def serve(listen_addr: tuple[str, int], config: ProxyConfig) -> SemProxy:
    """Start a proxy and return the running instance."""
    proxy = SemProxy(listen_addr, config)
    proxy.start()
    return proxy
