"""Performance counters and response-time statistics.

Counters mirror the usual web-server set (bytes received/sent per second,
connection attempts, requests, backend calls) plus duplicate ratio, gate
mode, and cache hit rate. Response times go into a fixed-bucket histogram:
0.05 ms buckets below 10 ms, log-spaced above.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields
from typing import IO, Iterable, Optional


def _build_bucket_edges() -> list[float]:
    edges = [0.05 * i for i in range(1, 201)]  # up to 10 ms
    edge = 10.0
    while edge < 120_000.0:  # cap at 2 minutes
        edge *= 1.25
        edges.append(edge)
    return edges


_EDGES_MS = _build_bucket_edges()


class LatencyHistogram:
    """Fixed-bucket latency histogram over milliseconds."""

    def __init__(self):
        self.counts = [0] * (len(_EDGES_MS) + 1)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def record_ns(self, ns: int) -> None:
        ms = ns / 1e6
        lo, hi = 0, len(_EDGES_MS)
        while lo < hi:
            mid = (lo + hi) // 2
            if ms <= _EDGES_MS[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.total += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms

    def mean(self) -> float:
        return self.sum_ms / self.total if self.total else 0.0

    def percentile(self, p: float) -> float:
        """Upper edge of the bucket holding the p-th percentile."""
        if not self.total:
            return 0.0
        target = p / 100.0 * self.total
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return _EDGES_MS[i] if i < len(_EDGES_MS) else self.max_ms
        return self.max_ms


@dataclass
class MetricsSnapshot:
    interval_start: float
    interval_end: float
    bytes_received_per_sec: float
    bytes_sent_per_sec: float
    total_bytes_per_sec: float
    connection_attempts_per_sec: float
    requests_per_sec: float
    backend_calls_per_sec: float
    duplicate_ratio_mean: float
    response_time_mean_ms: float
    response_time_p50_ms: float
    response_time_p95_ms: float
    response_time_max_ms: float
    gate_mode: str
    cache_hit_rate: float


CSV_COLUMNS = [f.name for f in fields(MetricsSnapshot)]


@dataclass
class _IntervalState:
    start: float
    bytes_received: int = 0
    bytes_sent: int = 0
    connection_attempts: int = 0
    requests: int = 0
    backend_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    ratio_sum: float = 0.0
    ratio_batches: int = 0
    response_hist: LatencyHistogram = field(default_factory=LatencyHistogram)


class MetricsCollector:
    """Accumulator with interval snapshots and global totals.

    Not thread-safe: the proxy calls it from its event-loop thread only.
    """

    def __init__(self, clock=None):
        self.clock = clock or time.monotonic
        self._interval = _IntervalState(start=self.clock())
        self.gate_mode = "sem"
        # global totals (never reset)
        self.total_requests = 0
        self.total_backend_calls = 0
        self.total_bytes_received = 0
        self.total_bytes_sent = 0
        self.total_connection_attempts = 0
        self.total_cache_hits = 0
        self.total_cache_misses = 0
        self.global_response_hist = LatencyHistogram()
        # no request waits for its window, so this stays empty and reads 0;
        # the benchmark harness reads its keys in counters()
        self.window_wait_hist = LatencyHistogram()
        # delivery ledger
        self.admitted = 0
        self.delivered = 0
        self.duplicate_deliveries = 0
        self.dropped_disconnects = 0
        self.faults = 0
        # backend calls not made: a request at admission, or a group at its
        # window's close, joined a call already in flight
        self.singleflight_joins = 0

    def record_connection_attempt(self) -> None:
        self._interval.connection_attempts += 1
        self.total_connection_attempts += 1

    def record_request(self, body_bytes: int) -> None:
        self._interval.requests += 1
        self._interval.bytes_received += body_bytes
        self.total_requests += 1
        self.total_bytes_received += body_bytes

    def record_response(self, body_bytes: int, elapsed_ns: int) -> None:
        self._interval.bytes_sent += body_bytes
        self.total_bytes_sent += body_bytes
        self._interval.response_hist.record_ns(elapsed_ns)
        self.global_response_hist.record_ns(elapsed_ns)

    def record_backend_call(self) -> None:
        self._interval.backend_calls += 1
        self.total_backend_calls += 1

    def record_batch(self, duplicate_ratio: float) -> None:
        """One duplicate ratio: a batch's, or a single request's, 1.0 when
        it repeats a key and 0.0 when it does not."""
        self._interval.ratio_sum += duplicate_ratio
        self._interval.ratio_batches += 1

    def record_cache(self, hits: int, misses: int) -> None:
        self._interval.cache_hits += hits
        self._interval.cache_misses += misses
        self.total_cache_hits += hits
        self.total_cache_misses += misses

    def set_gate_mode(self, mode: str) -> None:
        self.gate_mode = mode

    def snapshot(self, now: Optional[float] = None) -> MetricsSnapshot:
        """Close the current interval and open the next."""
        end = now if now is not None else self.clock()
        iv = self._interval
        span = max(end - iv.start, 1e-9)
        hist = iv.response_hist
        probes = iv.cache_hits + iv.cache_misses
        snap = MetricsSnapshot(
            interval_start=iv.start,
            interval_end=end,
            bytes_received_per_sec=iv.bytes_received / span,
            bytes_sent_per_sec=iv.bytes_sent / span,
            total_bytes_per_sec=(iv.bytes_received + iv.bytes_sent) / span,
            connection_attempts_per_sec=iv.connection_attempts / span,
            requests_per_sec=iv.requests / span,
            backend_calls_per_sec=iv.backend_calls / span,
            duplicate_ratio_mean=(
                iv.ratio_sum / iv.ratio_batches if iv.ratio_batches else 0.0
            ),
            response_time_mean_ms=hist.mean(),
            response_time_p50_ms=hist.percentile(50),
            response_time_p95_ms=hist.percentile(95),
            response_time_max_ms=hist.max_ms,
            gate_mode=self.gate_mode,
            cache_hit_rate=iv.cache_hits / probes if probes else 0.0,
        )
        self._interval = _IntervalState(start=end)
        return snap

    def counters(self) -> dict:
        return {
            "requests": self.total_requests,
            "backend_calls": self.total_backend_calls,
            "bytes_received": self.total_bytes_received,
            "bytes_sent": self.total_bytes_sent,
            "connection_attempts": self.total_connection_attempts,
            "cache_hits": self.total_cache_hits,
            "cache_misses": self.total_cache_misses,
            "admitted": self.admitted,
            "delivered": self.delivered,
            "duplicate_deliveries": self.duplicate_deliveries,
            "dropped_disconnects": self.dropped_disconnects,
            "faults": self.faults,
            "singleflight_joins": self.singleflight_joins,
            "gate_mode": self.gate_mode,
            "response_time_mean_ms": self.global_response_hist.mean(),
            "response_time_p95_ms": self.global_response_hist.percentile(95),
            "window_wait_p95_ms": self.window_wait_hist.percentile(95),
            "window_wait_mean_ms": self.window_wait_hist.mean(),
        }


def export_csv(snapshots: Iterable[MetricsSnapshot], out: IO[str]) -> None:
    """One header row plus one row per snapshot, floats at 3 decimals."""
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for snap in snapshots:
        row = []
        for name in CSV_COLUMNS:
            value = getattr(snap, name)
            row.append(f"{value:.3f}" if isinstance(value, float) else value)
        writer.writerow(row)


def export_csv_path(snapshots: Iterable[MetricsSnapshot], path: str) -> None:
    with open(path, "w", newline="") as fh:
        export_csv(snapshots, fh)
