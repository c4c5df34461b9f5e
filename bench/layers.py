"""Spans, and the traced replay that times each layer's public calls.

The replay feeds a fixed slice of the workload's stream through the same
module functions the proxy calls, in the proxy's order, outside the live
run so it takes no CPU from the system under test. Every call is one span;
the per-layer figures are derived from the spans alone.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import Counter

from semproxy import soap
from semproxy.config import ProxyConfig
from semproxy.dedup import DedupConfig, Deduplicator, ResponseCache
from semproxy.gate import AdaptiveGate, GateConfig, GateObservation
from semproxy.metrics import LatencyHistogram, MetricsCollector
from semproxy.trie import Trie
from semproxy.windowing import WindowCollector

import oracle
from workloads import HEADERS, OPERATION, Stream

BUILD_RESPONSE_CALLS = 200


class Tracer:
    """In-memory spans: (id, name, start_ns, end_ns, parent id, request id).

    ``record`` may be called from several threads: ids come from an
    ``itertools.count`` and the list only ever grows by ``append``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, name: str, start_ns: int, end_ns: int, parent: int = 0,
               rid=None, span_id: int = None) -> int:
        span_id = span_id or self.new_id()
        self.spans.append((span_id, name, start_ns, end_ns, parent, rid))
        return span_id

    def call(self, name: str, parent: int, rid, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
        self.spans.append((next(self._ids), name, t0, t1, parent, rid))
        return out

    def durations_ns(self, name: str) -> list[int]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def median_us(self, name: str) -> float:
        return statistics.median(self.durations_ns(name)) / 1000.0

    def total_us(self, name: str) -> float:
        return sum(self.durations_ns(name)) / 1000.0

    def write(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "rid")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def replay(tracer: Tracer, stream: Stream, first: int, count: int,
           batch_size_mean: float, latencies_ns: list[int],
           body_sizes: list[int], service_ns: int) -> dict:
    """Time each layer on requests ``first .. first+count-1`` of the stream.

    Windows are replayed on a synthetic clock that closes one window every
    ``batch_size_mean`` arrivals, the mean batch size the live run observed.
    """
    wl = stream.workload
    cfg = ProxyConfig(**wl.proxy_config)
    root = tracer.new_id()
    t_root = time.perf_counter_ns()
    ids = range(first, first + count)

    # soap: parse and key build per request
    parsed, keys = [], {}
    for rid in ids:
        req = tracer.call("soap.parse_request", root, rid, soap.parse_request,
                          stream.body(rid), HEADERS, request_id=rid,
                          arrival_time=0)
        parsed.append(req)
        keys[rid] = tracer.call("soap.build_parameter_sequence", root, rid,
                                soap.build_parameter_sequence, req)
    result_set = soap.ResultSet(
        columns=oracle.COLUMNS,
        rows=tuple(oracle.expected_rows(stream.params(first), wl.rows)))
    for _ in range(BUILD_RESPONSE_CALLS):
        tracer.call("soap.build_response", root, None, soap.build_response,
                    result_set, OPERATION)

    # windowing: admit + flush per request on the synthetic clock
    window_ns = int(cfg.window_ms * 1e6)
    step_ns = window_ns / max(batch_size_mean, 1.0)
    collector = WindowCollector(window_ns=window_ns,
                                max_batch_size=cfg.max_batch_size,
                                queue_depth=count + 1, start_ns=0)

    def admit_flush(req, now):
        collector.admit(req, now)
        collector.flush(now)

    for n, req in enumerate(parsed):
        tracer.call("windowing.admit_flush", root, req.request_id,
                    admit_flush, req, int(n * step_ns))
    collector.flush(int(count * step_ns) + window_ns)
    batches = []
    while not collector.out_queue.empty():
        batches.append(collector.out_queue.get_nowait())

    # dedup with the workload's own config, trie, gate and cache per batch
    clock = [0]
    deduper = Deduplicator(
        DedupConfig(cache_enabled=cfg.cache_enabled,
                    cache_ttl_ms=cfg.cache_ttl_ms,
                    cache_capacity=cfg.cache_capacity,
                    min_group_size=cfg.min_group_size),
        clock=lambda: clock[0], denylist=cfg.operation_denylist)
    cache = ResponseCache(capacity=cfg.cache_capacity,
                          ttl_ns=int(cfg.cache_ttl_ms * 1e6))
    gate = AdaptiveGate(GateConfig(enter_threshold=cfg.gate_enter,
                                   exit_threshold=cfg.gate_exit,
                                   alpha=cfg.gate_alpha,
                                   overhead_budget_pct=cfg.overhead_budget_pct))
    gate.note_service_time(service_ns)
    reply = b"x" * (body_sizes[0] if body_sizes else 1024)

    def observe_decide(obs):
        gate.observe(obs)
        return gate.decide()

    for batch in batches:
        clock[0] = batch.window_end
        bid = batch.batch_id
        t0 = time.perf_counter_ns()
        result = deduper.dedup(batch)
        analysis_ns = time.perf_counter_ns() - t0
        tracer.record("dedup.dedup", t0, t0 + analysis_ns, root, bid)
        if deduper.cache is not None:
            tracer.call("dedup.cache_store_batch", root, bid, deduper.cache_store,
                        result, {r.request_id: reply for r in result.representatives})
        trie = Trie()
        for req in batch.requests:
            tracer.call("trie.insert", root, req.request_id, trie.insert,
                        keys[req.request_id])
        tracer.call("gate.observe_decide", root, bid, observe_decide,
                    GateObservation(batch_id=bid,
                                    duplicate_ratio=result.duplicate_ratio,
                                    analysis_cost_ns=analysis_ns,
                                    batch_size=len(batch.requests)))
        # standalone cache at the workload's key length and hit pattern:
        # look up every key, store the batch's most frequent one
        batch_keys = [keys[r.request_id] for r in batch.requests]
        for req, key in zip(batch.requests, batch_keys):
            tracer.call("dedup.cache_lookup", root, req.request_id,
                        cache.lookup, key, clock[0])
        hottest = Counter(batch_keys).most_common(1)[0][0]
        tracer.call("dedup.cache_store", root, bid, cache.store, hottest,
                    reply, clock[0])

    # metrics: the live run's own latencies and reply sizes
    hist = LatencyHistogram()
    collector_m = MetricsCollector()
    for n, ns in enumerate(latencies_ns):
        tracer.call("metrics.record_ns", root, n, hist.record_ns, ns)
        tracer.call("metrics.record_response", root, n,
                    collector_m.record_response, body_sizes[n], ns)
    tracer.record("replay", t_root, time.perf_counter_ns(), 0, None,
                  span_id=root)

    return {
        "soap.parse_request_us": tracer.median_us("soap.parse_request"),
        "soap.param_key_us": tracer.median_us("soap.build_parameter_sequence"),
        "soap.build_response_us": tracer.median_us("soap.build_response"),
        "windowing.admit_us": tracer.median_us("windowing.admit_flush"),
        "dedup.dedup_us_per_req": tracer.total_us("dedup.dedup") / count,
        "dedup.cache_lookup_us": tracer.median_us("dedup.cache_lookup"),
        "dedup.cache_store_us": tracer.median_us("dedup.cache_store"),
        "trie.insert_us_per_key": tracer.total_us("trie.insert") / count,
        "gate.observe_decide_us": tracer.median_us("gate.observe_decide"),
        "metrics.record_ns_us": tracer.median_us("metrics.record_ns"),
        "metrics.record_response_us": tracer.median_us("metrics.record_response"),
    }
