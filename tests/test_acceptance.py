"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with -s to see the per-criterion lines as they pass.
"""

import asyncio
import hashlib
import random
import string
import sys
import time

import requests

from conftest import (proxy_health, reset_backend, running_backend,
                      running_proxy, url_of)
from semproxy import http11, soap
from semproxy.config import ProxyConfig
from semproxy.dedup import Deduplicator
from semproxy.gate import AdaptiveGate, GateMode, GateObservation
from semproxy.loadgen import ScenarioConfig, run_scenario
from semproxy.mock_backend import MockBackendConfig
from semproxy.soap import SoapRequest, build_parameter_sequence
from semproxy.trie import Trie
from semproxy.windowing import WindowBatch

ALPHABET = string.ascii_letters + string.digits + " .,;-_/()!?'#@"


def report(n, line):
    print(f"ACCEPTANCE {n} PASS — {line}", file=sys.stderr)


def make_batch(bid, params_list):
    reqs = [SoapRequest(i, i, b"", "Search", tuple(p), 0)
            for i, p in enumerate(params_list)]
    return WindowBatch(batch_id=bid, window_start=0, window_end=1, requests=reqs)


def naive_grouping(reqs):
    reps, groups = [], {}
    by_seq = {}
    for r in reqs:
        seq = build_parameter_sequence(r)
        if seq in by_seq:
            groups[by_seq[seq]].append(r.request_id)
        else:
            by_seq[seq] = r.request_id
            reps.append(r.request_id)
            groups[r.request_id] = []
    return reps, groups


def test_criterion_1_dedup_oracle_equivalence():
    rng = random.Random(20240817)
    d = Deduplicator()
    t0 = time.monotonic()
    batches = 0
    mismatches = 0
    sizes = [rng.randint(1, 64) for _ in range(9_900)] + \
            [rng.randint(1024, 4096) for _ in range(100)]
    for bid, size in enumerate(sizes):
        pool_size = max(1, int(size * rng.choice([0.05, 0.3, 1.0])))
        pool = ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 12)))
                for _ in range(pool_size)]
        params_list = [(rng.choice(pool),) if rng.random() < 0.8
                       else (rng.choice(pool), rng.choice(pool))
                       for _ in range(size)]
        batch = make_batch(bid, params_list)
        result = d.dedup(batch)
        reps, groups = naive_grouping(batch.requests)
        ok = ([r.request_id for r in result.representatives] == reps
              and result.groups == groups
              and result.duplicate_ratio == (size - len(reps)) / size)
        mismatches += 0 if ok else 1
        batches += 1
    elapsed = time.monotonic() - t0
    assert batches >= 10_000
    assert mismatches == 0
    assert elapsed < 60
    report(1, f"{batches} randomized batches, 0 mismatches, {elapsed:.1f}s")


def test_criterion_2_trie_property_suite():
    rng = random.Random(7)
    cases = 0
    for _ in range(400):
        n_keys = rng.randint(1, 60)
        keys = {bytes(rng.randrange(256) for _ in range(rng.randint(1, 16)))
                for _ in range(n_keys)}
        t = Trie()
        order = list(keys)
        rng.shuffle(order)
        for k in order:
            assert t.insert(k).created
            cases += 1
        # idempotent re-insert
        nodes = t.node_count
        for k in order:
            assert not t.insert(k).created
            cases += 1
        assert t.node_count == nodes and t.key_count == len(keys)
        # membership oracle, incl. proper prefixes (end-marker guard)
        for k in list(keys)[:20]:
            for cut in range(1, len(k)):
                assert t.contains(k[:cut]) == (k[:cut] in keys)
                cases += 1
        for _ in range(120):
            probe = bytes(rng.randrange(256) for _ in range(rng.randint(1, 16)))
            assert t.contains(probe) == (probe in keys)
            cases += 1
        # compression preserves the accepted language
        dag = t.compress()
        assert set(dag.keys()) == keys
        assert dag.node_count <= t.node_count
        cases += len(keys)
    assert cases >= 100_000
    report(2, f"{cases} generated cases, 0 failures")


def _concurrent_bodies(url, bodies):
    """POST all bodies at once, each on its own keep-alive connection;
    return (status, body) per request."""
    async def post_all():
        pool = http11.BackendPool(url, len(bodies), 120, 120)
        try:
            return await asyncio.gather(
                *(pool.post(body, b"Search") for body in bodies))
        finally:
            await pool.close()
    return asyncio.run(post_all())


def _situation_run(backend, bodies):
    cfg = ProxyConfig(window_ms=3000, force_mode="sem", max_connections=32)
    with running_proxy(backend, cfg) as proxy:
        results = _concurrent_bodies(url_of(proxy), bodies)
        assert {s for s, _ in results} == {200}
        health = proxy_health(proxy)
        assert health["duplicate_deliveries"] == 0
        assert (health["delivered"] + health["dropped_disconnects"]
                == health["admitted"] == len(bodies))
    return results, backend_calls_of(backend)


def backend_calls_of(backend):
    return requests.get(url_of(backend) + "_mock/stats",
                        timeout=10).json()["search_calls"]


def test_criterion_3_and_4_situations_and_fanout_identity():
    rng = random.Random(5)
    with running_backend(MockBackendConfig(
            compute_delay_ms=0.1, rows_per_response=2,
            per_row_serialize_cost_us=10)) as backend:
        # Situation B: 1000 identical concurrent requests -> 1 backend call
        body = soap.build_request_envelope("Search", ["shared-term"])
        results_b, calls_b = _situation_run(backend, [body] * 1000)
        assert calls_b == 1
        assert len({c for _, c in results_b}) == 1  # criterion 4 on B

        # Situation A: 1000 distinct -> exactly 1000 calls
        reset_backend(backend)
        bodies_a = [soap.build_request_envelope("Search", [f"term-{i}"])
                    for i in range(1000)]
        results_a, calls_a = _situation_run(backend, bodies_a)
        assert calls_a == 1000

        # Situation C: exactly 50% the same -> 500 +/- 10 calls
        reset_backend(backend)
        bodies_c = ([body] * 500
                    + [soap.build_request_envelope("Search", [f"cold-{i}"])
                       for i in range(500)])
        rng.shuffle(bodies_c)
        results_c, calls_c = _situation_run(backend, bodies_c)
        assert 490 <= calls_c <= 510

        # criterion 4: every duplicate response hash-identical to its
        # representative's (same parameters -> one hash per parameter value)
        hot_hashes = {hashlib.sha256(c).hexdigest()
                      for (s, c), b in zip(results_c, bodies_c) if b == body}
        assert len(hot_hashes) == 1
    report(3, f"Situation B calls=1, A calls=1000, C calls={calls_c}")
    report(4, "100% of duplicate responses hash-identical to representative")


def test_criterion_5_throughput_trend():
    backend_cfg = MockBackendConfig(
        compute_delay_ms=1.0, rows_per_response=200,
        per_row_serialize_cost_us=50.0)  # ~11 ms per call, serialized
    scenario = ScenarioConfig(rate=400, clients=64,
                              duration_s=6.0, similarity_pct=70,
                              param_length=15, seed=11,
                              request_timeout_s=120)
    rates = {}
    for mode in ("passthrough", "sem"):
        with running_backend(backend_cfg) as backend:
            cfg = ProxyConfig(window_ms=50, force_mode=mode)
            with running_proxy(backend, cfg) as proxy:
                rep = run_scenario(scenario, url_of(proxy))
                assert rep.failed == 0
                rates[mode] = rep.achieved_rps
    ratio = rates["sem"] / rates["passthrough"]
    assert ratio >= 2.0, f"speedup {ratio:.2f}x below 2x ({rates})"
    report(5, f"70% similarity: {rates['sem']:.0f} rps vs "
              f"{rates['passthrough']:.0f} rps passthrough = {ratio:.2f}x")


def test_criterion_6_trend_sweep():
    t_start = time.monotonic()
    lengths = [15, 25, 35, 65, 75]
    sims = list(range(10, 101, 10))
    mean_rt = {}  # (length, sim) -> ms
    for length in lengths:
        backend_cfg = MockBackendConfig(
            compute_delay_ms=1.0, rows_per_response=6 * length,
            per_row_serialize_cost_us=50.0)
        with running_backend(backend_cfg) as backend:
            cfg = ProxyConfig(window_ms=25, force_mode="sem")
            with running_proxy(backend, cfg) as proxy:
                for sim in sims:
                    # one shared seed couples the hot/cold draws across
                    # cells, so expected duplicate counts are monotone in sim
                    scenario = ScenarioConfig(
                        rate=4000, clients=32,
                        duration_s=0.04, similarity_pct=sim,
                        param_length=length, seed=99, request_timeout_s=120)
                    rep = run_scenario(scenario, url_of(proxy))
                    assert rep.sent == 160 and rep.failed == 0
                    mean_rt[(length, sim)] = rep.response_time_mean_ms
    # response time non-increasing as similarity rises (<=1 inversion/column)
    for length in lengths:
        col = [mean_rt[(length, s)] for s in sims]
        inversions = sum(1 for a, b in zip(col, col[1:]) if b > a * 1.02)
        assert inversions <= 1, f"depth {length}: {col}"
    # response time non-decreasing with parameter length at fixed similarity
    for sim in sims:
        row = [mean_rt[(length, sim)] for length in lengths]
        inversions = sum(1 for a, b in zip(row, row[1:]) if b < a * 0.98)
        assert inversions <= 1, f"similarity {sim}: {row}"
    elapsed = time.monotonic() - t_start
    assert elapsed < 900
    report(6, f"50-cell sweep matches trend shape in {elapsed:.0f}s")


def test_criterion_7_lookup_scale_independence():
    rng = random.Random(13)

    def build(n):
        t = Trie()
        for i in range(n):
            t.insert(f"{i:010d}-parameter".encode())
        return t

    small, large = build(1_000), build(100_000)
    probes = [f"{rng.randrange(1000):010d}-parameter".encode()
              for _ in range(20_000)]

    def timed_lookups(t):
        t.visits = 0
        t0 = time.perf_counter()
        for p in probes:
            assert t.contains(p)
        return time.perf_counter() - t0, t.visits

    # interleave and keep best-of-3 to shave scheduler noise
    best_small = min(timed_lookups(small)[0] for _ in range(3))
    best_large = min(timed_lookups(large)[0] for _ in range(3))
    _, visits_small = timed_lookups(small)
    _, visits_large = timed_lookups(large)
    assert visits_small == visits_large == len(probes) * len(probes[0])
    ratio = max(best_large, best_small) / min(best_large, best_small)
    assert ratio < 2.0, f"lookup time ratio {ratio:.2f}"
    report(7, f"visits == |seq| exactly; 10^3 vs 10^5 keys time ratio "
              f"{ratio:.2f}x < 2x")


def test_criterion_8_gate_trace_and_passthrough_identity():
    gate = AdaptiveGate()
    trace = [0.8] * 40 + [0.0] * 40 + [0.8] * 40
    modes = []
    for i, ratio in enumerate(trace):
        gate.observe(GateObservation(i, ratio, 1000, 10))
        modes.append(gate.decide().mode)
    transitions = [(a, b) for a, b in zip(modes, modes[1:]) if a is not b]
    assert transitions == [(GateMode.SEM, GateMode.PASSTHROUGH),
                           (GateMode.PASSTHROUGH, GateMode.SEM)]

    # passthrough forwards bodies byte-identical to what clients sent
    with running_backend(MockBackendConfig(
            compute_delay_ms=0.1, rows_per_response=1,
            per_row_serialize_cost_us=1)) as backend:
        seen = []
        original = backend.handle_soap
        backend.handle_soap = lambda raw: (seen.append(raw), original(raw))[1]
        cfg = ProxyConfig(window_ms=20, force_mode="passthrough")
        with running_proxy(backend, cfg) as proxy:
            bodies = [soap.build_request_envelope("Search", [f"pt-{i}"])
                      for i in range(20)]
            _concurrent_bodies(url_of(proxy), bodies)
        assert sorted(seen) == sorted(bodies)
        assert len(seen) == len(bodies)  # forwarded exactly once each
    report(8, "exactly 2 mode transitions; passthrough bodies byte-identical")


def test_criterion_9_exactly_once_delivery():
    # mixed load: duplicates, uniques, malformed, across many windows
    rng = random.Random(3)
    with running_backend(MockBackendConfig(
            compute_delay_ms=0.2, rows_per_response=3,
            per_row_serialize_cost_us=5)) as backend:
        cfg = ProxyConfig(window_ms=15)
        with running_proxy(backend, cfg) as proxy:
            bodies = []
            for i in range(400):
                r = rng.random()
                if r < 0.5:
                    bodies.append(soap.build_request_envelope("Search", ["hot"]))
                else:
                    bodies.append(
                        soap.build_request_envelope("Search", [f"u{i}"]))
            results = _concurrent_bodies(url_of(proxy), bodies)
            assert {s for s, _ in results} == {200}
            health = proxy_health(proxy)
            assert health["admitted"] == 400
            assert health["delivered"] == 400
            assert health["duplicate_deliveries"] == 0
            assert health["dropped_disconnects"] == 0
    report(9, "400/400 delivered exactly once, 0 duplicates, 0 losses")


def test_criterion_10_windowing_latency_bound():
    window_ms = 20
    with running_backend(MockBackendConfig(
            compute_delay_ms=0.2, rows_per_response=2,
            per_row_serialize_cost_us=5)) as backend:
        cfg = ProxyConfig(window_ms=window_ms, force_mode="sem")
        with running_proxy(backend, cfg) as proxy:
            scenario = ScenarioConfig(  # Situation A shape: all distinct
                rate=200, clients=16, duration_s=2.0,
                similarity_pct=0, param_length=15, seed=4,
                request_timeout_s=60)
            rep = run_scenario(scenario, url_of(proxy))
            assert rep.failed == 0
            p95 = proxy_health(proxy)["window_wait_p95_ms"]
    assert p95 <= 2 * window_ms, f"window wait p95 {p95:.2f} ms"
    report(10, f"window wait p95 {p95:.2f} ms <= {2 * window_ms} ms")
