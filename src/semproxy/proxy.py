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

- Sem mode: the request's key is built at admission. If the cache holds a
  live reply for it, that reply is written at once. Otherwise, if a
  backend call for the key is in flight, the request joins that call.
  Either way it is still counted in its window, so the gate sees every
  key, but the window's close leaves it out of grouping, delivery and
  caching. Any other request waits on its future. When the window closes,
  its batch is grouped inline, and one task per batch forwards each
  representative over a bounded pool of keep-alive backend connections.
  As soon as a group's backend call completes, its reply bytes resolve the
  future of every member and may enter the cache. A future can be
  resolved once, so every admitted request receives exactly one response.
- Single flight: a representative whose key already has a backend call in
  flight, started by an earlier window, makes no call of its own. Its
  group joins that call's member list and gets the same reply, or the same
  fault, when the call completes.
- Passthrough mode: the connection task forwards its request at once and
  writes the backend's reply. The window only measures: when it closes,
  the duplicate ratio of its keys goes to the gate, which needs it to
  re-enter sem mode, and nothing is forwarded.
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
from .dedup import DedupConfig, DedupResult, Deduplicator, duplicate_ratio
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
        # future of each admitted request whose client still waits for it
        self._in_flight: dict[int, asyncio.Future] = {}
        # key of each backend call in flight -> ids of the requests it answers
        self._pending: dict[bytes, list[int]] = {}
        # key of each sem request in an open window, built at admission;
        # both are emptied for a window's requests when it closes
        self._keys: dict[int, Optional[bytes]] = {}
        # ids of those requests answered, or joined to a call, at admission
        self._answered: set[int] = set()
        self._window_timer: Optional[asyncio.TimerHandle] = None
        self._snapshot_timer: Optional[asyncio.TimerHandle] = None
        self._batch_tasks: set[asyncio.Task] = set()
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
        data["in_flight"] = len(self._in_flight)
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
        # window, so wait until every connection and batch has finished
        while self._connections or self._batch_tasks:
            await asyncio.wait(self._connections | self._batch_tasks)
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
        # processes it, which sets the mode of the window req is in. That
        # window stays open until a later call, so req's key and future can
        # be made after it.
        self.collector.admit(req, time.monotonic_ns())
        self._drain_batches()
        self._arm_window_timer()
        if self._mode() is GateMode.PASSTHROUGH:
            return await self._pass_through(req)
        try:
            cached = self._admit_sem(req)
        except Exception:
            log.exception("admitting request %d failed", rid)
            self.stage_failures += 1
            self._answered.add(rid)
            return 500, _STAGE_FAULT, True
        if cached is not None:
            return 200, cached, True
        future = self._loop.create_future()
        self._in_flight[rid] = future
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

    def _admit_sem(self, req: soap.SoapRequest) -> Optional[bytes]:
        """Build a sem request's key, then answer it from the cache or join
        the backend call in flight for its key. Returns the cached reply,
        or None while the request awaits its future."""
        rid = req.request_id
        key = self._keys[rid] = self.deduper.key(req)
        if key is None:  # never shares a reply
            return None
        cache = self.deduper.cache
        if cache is not None:
            cached = cache.lookup(key, self.deduper.clock())
            if cached is not None:
                self._answered.add(rid)
                self.metrics.record_cache(hits=1, misses=0)
                self.metrics.record_window_wait(0)
                return cached
        members = self._pending.get(key)
        if members is not None:
            if cache is not None:  # a miss, as its window would count it
                self.deduper.sight(key)
                self.metrics.record_cache(hits=0, misses=1)
            self.metrics.singleflight_joins += 1
            self.metrics.record_window_wait(0)
            self._answered.add(rid)
            members.append(rid)
        return None

    async def _pass_through(
            self, req: soap.SoapRequest) -> tuple[int, bytes, bool]:
        """Forward one request at once; its window only counts its key."""
        self.metrics.record_window_wait(0)
        try:
            async with asyncio.timeout(self._pipeline_timeout_s):
                status, body = await self._call_backend(req)
        except TimeoutError:
            self.metrics.faults += 1
            return 504, _TIMEOUT_FAULT, True
        except Exception:
            log.exception("forwarding request %d failed", req.request_id)
            self.stage_failures += 1
            return 500, _STAGE_FAULT, True
        return status, body, True

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
            mode = self._mode()
            keys, answered = None, set()
            if mode is GateMode.SEM:
                keys = [self._keys.pop(r.request_id, None)
                        for r in batch.requests]
                answered = {r.request_id for r in batch.requests
                            if r.request_id in self._answered}
                self._answered -= answered
            try:
                self._process_batch(batch, mode, keys, answered)
            except Exception:
                log.exception("batch %d failed", batch.batch_id)
                self.stage_failures += 1
                if mode is GateMode.SEM:
                    # passthrough requests were forwarded at admission and
                    # may have been answered already, as may sem requests
                    # answered at admission
                    self._fail([r.request_id for r in batch.requests
                                if r.request_id not in answered])

    # ------------------------------------------------------------ batch stage

    def _mode(self) -> GateMode:
        """Mode of the open window: the forced one, else the gate's
        decision when the previous window closed."""
        return self._forced_mode or self.gate.mode

    def _process_batch(self, batch: WindowBatch, mode: GateMode,
                       keys: Optional[list[Optional[bytes]]],
                       answered: set[int]) -> None:
        """Group (sem) or measure (passthrough) one closed window, feed its
        duplicate ratio to the gate, and set the next window's mode.

        In sem mode ``keys`` are the keys built at admission, and the
        requests in ``answered`` count only toward the ratio."""
        if mode is GateMode.SEM:
            pull = time.monotonic_ns()
            for req in batch.requests:
                if req.request_id not in answered:
                    self.metrics.record_window_wait(pull - req.arrival_time)
        t0 = time.monotonic_ns()
        if mode is GateMode.SEM:
            result = self.deduper.dedup(batch, keys, answered)
            ratio = result.duplicate_ratio
        else:  # the same ratio as sem mode, so the gate can re-enter it
            ratio = duplicate_ratio(
                [self.deduper.key(req) for req in batch.requests])
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
        if mode is GateMode.PASSTHROUGH:
            return
        if self.deduper.cache is not None:
            self.metrics.record_cache(
                hits=len(result.cache_hits),
                misses=len(result.sequences) - len(result.cache_hits))
        for rid, cached in result.cache_hits:
            self._deliver(rid, 200, cached)
        if result.representatives:
            task = self._loop.create_task(self._forward_batch(result))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    # ------------------------------------------------------ forward + fan-out

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

    async def _forward_batch(self, result: DedupResult) -> None:
        """Forward each representative, or join the call in flight for its
        key; fan out, and cache, each call's reply as soon as it completes."""
        async def forward_group(rep: soap.SoapRequest) -> None:
            members = [rep.request_id, *result.groups.get(rep.request_id, ())]
            key = result.sequences.get(rep.request_id)
            if key is not None:  # None: never shares a call
                joined = self._pending.get(key)
                if joined is not None:
                    joined.extend(members)
                    self.metrics.singleflight_joins += 1
                    return
                # members grows as later windows join this call
                self._pending[key] = members
            try:
                status, body = await self._call_backend(rep)
            except Exception:
                log.exception("forwarding request %d failed", rep.request_id)
                self.stage_failures += 1
                self._fail(members)
                return
            finally:
                if key is not None:
                    del self._pending[key]
            for rid in members:
                self._deliver(rid, status, body)
            if status == 200 and self.deduper.cache is not None:
                try:
                    self.deduper.cache_store(result, {rep.request_id: body})
                except Exception:
                    log.exception("caching request %d failed", rep.request_id)
                    self.stage_failures += 1

        reps = result.representatives
        if len(reps) == 1:
            await forward_group(reps[0])
        else:
            await asyncio.gather(*(forward_group(rep) for rep in reps))

    def _deliver(self, request_id: int, status: int, body: bytes) -> None:
        future = self._in_flight.get(request_id)
        if future is None:  # its client stopped waiting
            self.metrics.dropped_disconnects += 1
        elif future.done():
            self.metrics.duplicate_deliveries += 1
        else:
            future.set_result((status, body))

    def _fail(self, request_ids: list[int]) -> None:
        """Answer every request of a failed stage that has no reply yet."""
        for rid in request_ids:
            future = self._in_flight.get(rid)
            if future is None or not future.done():
                self._deliver(rid, 500, _STAGE_FAULT)


def serve(listen_addr: tuple[str, int], config: ProxyConfig) -> SemProxy:
    """Start a proxy and return the running instance."""
    proxy = SemProxy(listen_addr, config)
    proxy.start()
    return proxy
