import asyncio
import concurrent.futures as cf
import hashlib
import http.client
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests

from conftest import (assert_exactly_once, backend_calls, proxy_health,
                      running_backend, running_proxy, url_of)
from semproxy import soap
from semproxy.config import ProxyConfig
from semproxy.mock_backend import MockBackendConfig
from semproxy.proxy import SemProxy


def post(url, body, timeout=30):
    return requests.post(url, data=body,
                         headers={"Content-Type": "text/xml; charset=utf-8"},
                         timeout=timeout)


def posts_from_callers(url, bodies, callers=8):
    """Each of ``callers`` threads posts its share of bodies one after
    another on a keep-alive session; the statuses, caller by caller."""
    def caller(share):
        with requests.Session() as s:
            return [s.post(url, data=b, timeout=30).status_code for b in share]
    with cf.ThreadPoolExecutor(callers) as ex:
        shares = [bodies[k::callers] for k in range(callers)]
        return [c for part in ex.map(caller, shares) for c in part]


def sleep_to_window_start(proxy, margin_s=0.002):
    """Sleep until just after the proxy's next window opens."""
    epoch, period = proxy._epoch, proxy._window_ns
    now = time.monotonic_ns()
    time.sleep((period - (now - epoch) % period) / 1e9 + margin_s)


def concurrent_post(url, bodies, workers=None):
    def call(body):
        with requests.Session() as s:
            r = s.post(url, data=body, timeout=60)
            return r.status_code, r.content
    with cf.ThreadPoolExecutor(workers or len(bodies)) as ex:
        return list(ex.map(call, bodies))


class TestSingleRequest:
    def test_response_matches_backend_verbatim(self, fast_backend):
        body = soap.build_request_envelope("Search", ["hello"])
        direct = post(url_of(fast_backend), body).content
        with running_proxy(fast_backend, ProxyConfig(window_ms=5)) as proxy:
            via_proxy = post(url_of(proxy), body)
            assert via_proxy.status_code == 200
            assert via_proxy.content == direct
            assert_exactly_once(proxy)

    def test_malformed_request_gets_fault_connection_survives(self, fast_backend):
        with running_proxy(fast_backend, ProxyConfig(window_ms=5)) as proxy:
            with requests.Session() as s:
                bad = s.post(url_of(proxy), data=b"<Envelope><Body>", timeout=10)
                assert bad.status_code == 400
                assert b"Fault" in bad.content
                ok = s.post(url_of(proxy),
                            data=soap.build_request_envelope("Search", ["x"]),
                            timeout=30)
                assert ok.status_code == 200

    def test_backend_down_yields_unavailable_fault(self):
        cfg = ProxyConfig(window_ms=5, connect_timeout_s=0.5,
                          request_timeout_s=2.0)
        cfg.backend_url = "http://127.0.0.1:1/"

        from semproxy import proxy as px
        proxy = px.serve(("127.0.0.1", 0), cfg)
        try:
            resp = post(url_of(proxy),
                        soap.build_request_envelope("Search", ["x"]), timeout=10)
            assert resp.status_code == 502
            assert b"Unavailable" in resp.content
        finally:
            proxy.stop()

    def test_silent_backend_times_out(self):
        # the kernel completes the handshake; nothing ever answers
        with socket.create_server(("127.0.0.1", 0)) as silent:
            cfg = ProxyConfig(window_ms=5, request_timeout_s=0.5)
            cfg.backend_url = f"http://127.0.0.1:{silent.getsockname()[1]}/"
            from semproxy import proxy as px
            proxy = px.serve(("127.0.0.1", 0), cfg)
            try:
                t0 = time.monotonic()
                resp = post(url_of(proxy),
                            soap.build_request_envelope("Search", ["x"]),
                            timeout=10)
                assert time.monotonic() - t0 < 2.0
                assert resp.status_code == 502
                assert b"TimeoutError" in resp.content
            finally:
                proxy.stop()


class TestCoalescing:
    def test_identical_requests_one_backend_call(self, fast_backend):
        cfg = ProxyConfig(window_ms=500, force_mode="sem")
        with running_proxy(fast_backend, cfg) as proxy:
            body = soap.build_request_envelope("Search", ["same"])
            results = concurrent_post(url_of(proxy), [body] * 120, workers=120)
            assert {s for s, _ in results} == {200}
            assert len({c for _, c in results}) == 1
            assert backend_calls(fast_backend) == 1
            assert_exactly_once(proxy)

    def test_distinct_requests_all_forwarded(self, fast_backend):
        cfg = ProxyConfig(window_ms=100, force_mode="sem")
        with running_proxy(fast_backend, cfg) as proxy:
            bodies = [soap.build_request_envelope("Search", [f"q{i}"])
                      for i in range(40)]
            results = concurrent_post(url_of(proxy), bodies)
            assert {s for s, _ in results} == {200}
            assert len({c for _, c in results}) == 40
            assert backend_calls(fast_backend) == 40
            assert_exactly_once(proxy)

    def test_sequential_posts_in_one_window_share_one_call(self,
                                                           fast_backend):
        # each post's call completes before the next post arrives; its
        # reply serves the rest of the window, and no post waits for it
        cfg = ProxyConfig(window_ms=2000, force_mode="sem")
        body = soap.build_request_envelope("Search", ["same"])
        with running_proxy(fast_backend, cfg) as proxy:
            with requests.Session() as s:
                sleep_to_window_start(proxy, margin_s=0.01)
                replies = [s.post(url_of(proxy), data=body, timeout=10)
                           for _ in range(5)]
                assert [r.status_code for r in replies] == [200] * 5
                assert len({r.content for r in replies}) == 1
                assert backend_calls(fast_backend) == 1
                sleep_to_window_start(proxy, margin_s=0.01)
                later = s.post(url_of(proxy), data=body, timeout=10)
                assert later.status_code == 200
                assert backend_calls(fast_backend) == 2
            assert proxy_health(proxy)["window_wait_p95_ms"] <= 0.05
            assert_exactly_once(proxy)

    def test_early_flush_at_max_batch_size_keeps_reuse(self, fast_backend):
        # max_batch_size does not split a window: the third post lands in
        # the same window, whose end alone ends the reuse of the first reply
        cfg = ProxyConfig(window_ms=2000, max_batch_size=2, force_mode="sem")
        body = soap.build_request_envelope("Search", ["same"])
        with running_proxy(fast_backend, cfg) as proxy:
            with requests.Session() as s:
                sleep_to_window_start(proxy, margin_s=0.01)
                replies = [s.post(url_of(proxy), data=body, timeout=10)
                           for _ in range(3)]
            assert [r.status_code for r in replies] == [200] * 3
            assert len({r.content for r in replies}) == 1
            assert proxy_health(proxy)["flushed_batches"] == 1
            assert backend_calls(fast_backend) == 1
            assert_exactly_once(proxy)

    def test_idle_sem_proxy_answers_without_waiting(self, fast_backend):
        cfg = ProxyConfig(window_ms=1000, force_mode="sem")
        with running_proxy(fast_backend, cfg) as proxy:
            sleep_to_window_start(proxy)
            t0 = time.monotonic()
            resp = post(url_of(proxy), soap.build_request_envelope(
                "Search", ["lone"]))
            assert time.monotonic() - t0 < 0.25
            assert resp.status_code == 200
            assert_exactly_once(proxy)

    def test_fan_out_byte_identity(self, fast_backend):
        cfg = ProxyConfig(window_ms=200, force_mode="sem")
        with running_proxy(fast_backend, cfg) as proxy:
            bodies = ([soap.build_request_envelope("Search", ["dup"])] * 30
                      + [soap.build_request_envelope("Search", [f"u{i}"])
                         for i in range(10)])
            results = concurrent_post(url_of(proxy), bodies, workers=40)
            dup_hashes = {hashlib.sha256(c).hexdigest()
                          for (s, c) in results[:30]}
            assert len(dup_hashes) == 1
            assert_exactly_once(proxy)

    def test_duplicates_inherit_representative_fault(self):
        # backend that dies after accepting connections: every duplicate in
        # the group must receive the identical synthesized fault
        cfg = ProxyConfig(window_ms=200, force_mode="sem",
                          connect_timeout_s=0.5, request_timeout_s=1.0)
        cfg.backend_url = "http://127.0.0.1:1/"
        from semproxy import proxy as px
        proxy = px.serve(("127.0.0.1", 0), cfg)
        try:
            body = soap.build_request_envelope("Search", ["x"])
            results = concurrent_post(url_of(proxy), [body] * 10, workers=10)
            assert {s for s, _ in results} == {502}
            assert len({c for _, c in results}) == 1
        finally:
            proxy.stop()

    def test_denylisted_operation_not_coalesced(self):
        with running_backend(MockBackendConfig(
                compute_delay_ms=0.1, rows_per_response=1,
                per_row_serialize_cost_us=1)) as backend:
            cfg = ProxyConfig(window_ms=200, force_mode="sem",
                              operation_denylist=["Search"])
            with running_proxy(backend, cfg) as proxy:
                body = soap.build_request_envelope("Search", ["same"])
                results = concurrent_post(url_of(proxy), [body] * 12, workers=12)
                assert {s for s, _ in results} == {200}
                assert backend_calls(backend) == 12


class TestResponseCache:
    def test_cache_hit_skips_backend(self, fast_backend):
        cfg = ProxyConfig(window_ms=40, force_mode="sem",
                          cache_enabled=True, cache_ttl_ms=10_000,
                          min_group_size=2)
        with running_proxy(fast_backend, cfg) as proxy:
            body = soap.build_request_envelope("Search", ["hot"])
            # window 1: a duplicate group, so the response gets cached
            concurrent_post(url_of(proxy), [body] * 8, workers=8)
            calls_after_first = backend_calls(fast_backend)
            assert calls_after_first == 1
            time.sleep(0.2)  # well past the window
            # later windows: served from cache, no new backend call
            results = concurrent_post(url_of(proxy), [body] * 4, workers=4)
            assert {s for s, _ in results} == {200}
            assert backend_calls(fast_backend) == calls_after_first
            health = proxy_health(proxy)
            assert health["cache_hits"] >= 4
            assert health["cache_entries"] == 1
            assert_exactly_once(proxy)

    def test_cached_key_is_answered_at_admission(self, fast_backend):
        cfg = ProxyConfig(window_ms=500, force_mode="sem",
                          cache_enabled=True, cache_ttl_ms=10_000)
        with running_proxy(fast_backend, cfg) as proxy:
            body = soap.build_request_envelope("Search", ["hot"])
            # two sightings: the reply is cached when its call completes
            first = concurrent_post(url_of(proxy), [body] * 2)
            assert {s for s, _ in first} == {200}
            calls = backend_calls(fast_backend)
            t0 = time.monotonic()
            resp = post(url_of(proxy), body)
            # far less than the 500 ms window it still counts in
            assert time.monotonic() - t0 < 0.25
            assert resp.status_code == 200
            assert resp.content == first[0][1]
            assert backend_calls(fast_backend) == calls
            assert proxy_health(proxy)["cache_hits"] == 1
            assert_exactly_once(proxy)

    def test_cache_disabled_by_default(self, fast_backend):
        cfg = ProxyConfig(window_ms=40, force_mode="sem")
        with running_proxy(fast_backend, cfg) as proxy:
            body = soap.build_request_envelope("Search", ["hot"])
            concurrent_post(url_of(proxy), [body] * 4, workers=4)
            first = backend_calls(fast_backend)
            assert first >= 1
            time.sleep(0.2)
            # with no cache, a later identical window hits the backend again
            concurrent_post(url_of(proxy), [body] * 4, workers=4)
            assert backend_calls(fast_backend) > first


class TestGateIntegration:
    def test_passthrough_bodies_reach_backend_verbatim(self, fast_backend):
        seen = []
        original = fast_backend.handle_soap

        def spy(raw):
            seen.append(raw)
            return original(raw)

        fast_backend.handle_soap = spy
        cfg = ProxyConfig(window_ms=30, force_mode="passthrough")
        with running_proxy(fast_backend, cfg) as proxy:
            bodies = [soap.build_request_envelope("Search", [f"q{i}"])
                      for i in range(6)]
            results = concurrent_post(url_of(proxy), bodies)
            assert {s for s, _ in results} == {200}
            assert sorted(seen) == sorted(bodies)
            assert proxy_health(proxy)["gate_mode"] == "passthrough"

    def test_passthrough_request_never_waits_for_a_window(self, fast_backend):
        cfg = ProxyConfig(window_ms=500, force_mode="passthrough")
        with running_proxy(fast_backend, cfg) as proxy:
            with requests.Session() as s:
                for i in range(5):
                    body = soap.build_request_envelope("Search", [f"w{i}"])
                    t0 = time.monotonic()
                    resp = s.post(url_of(proxy), data=body, timeout=10)
                    assert time.monotonic() - t0 < 0.1
                    assert resp.status_code == 200
            # 0.05 ms is the upper edge of the histogram's first bucket
            assert proxy_health(proxy)["window_wait_p95_ms"] <= 0.05
            assert_exactly_once(proxy)


class TestHealthEndpoint:
    def test_health_reports_counters(self, fast_backend):
        with running_proxy(fast_backend, ProxyConfig(window_ms=10)) as proxy:
            post(url_of(proxy), soap.build_request_envelope("Search", ["x"]))
            health = proxy_health(proxy)
            for key in ("admitted", "delivered", "backend_calls", "gate_mode",
                        "window_wait_p95_ms", "requests"):
                assert key in health
            assert health["admitted"] == health["delivered"] == 1
            assert health["gate_mode"] == "sem"  # coalescing is the default

    def test_snapshot_reports_the_share_of_repeated_keys(self, fast_backend):
        # the first of 8 identical posts leads; the other 7 join its call
        # or reuse its reply, and each of 8 distinct posts leads its own
        cfg = ProxyConfig(window_ms=2000, metrics_interval_s=60)
        hot = [soap.build_request_envelope("Search", ["hot"])] * 8
        cold = [soap.build_request_envelope("Search", [f"c{i}"])
                for i in range(8)]
        with running_proxy(fast_backend, cfg) as proxy:
            sleep_to_window_start(proxy)
            results = concurrent_post(url_of(proxy), hot + cold)
            assert {s for s, _ in results} == {200}
            assert backend_calls(fast_backend) == 9

            async def snapshot():
                return proxy.metrics.snapshot()
            snap = asyncio.run_coroutine_threadsafe(
                snapshot(), proxy._loop).result(5)
            assert snap.duplicate_ratio_mean == 7 / 16

    def test_interval_snapshots_exported_on_stop(self, fast_backend, tmp_path):
        from semproxy import proxy as px
        cfg = ProxyConfig(window_ms=10, metrics_interval_s=0.05)
        cfg.backend_url = url_of(fast_backend)
        proxy = px.serve(("127.0.0.1", 0), cfg)
        try:
            post(url_of(proxy), soap.build_request_envelope("Search", ["x"]))
            time.sleep(0.3)
        finally:
            proxy.stop(metrics_csv=str(tmp_path / "metrics.csv"))
        rows = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert rows[0].startswith("interval_start,")
        assert len(rows) - 1 >= 3


class TestDeliveryState:
    def test_in_flight_empties_and_ledger_balances(self, fast_backend):
        bodies = [soap.build_request_envelope("Search", [f"q{i % 50}"])
                  for i in range(500)]
        with running_proxy(fast_backend, ProxyConfig(window_ms=5)) as proxy:
            statuses = posts_from_callers(url_of(proxy), bodies)
            assert statuses == [200] * 500
            time.sleep(0.1)  # idle
            health = proxy_health(proxy)
            assert health["in_flight"] == 0
            assert health["admitted"] == health["delivered"] == 500
            assert_exactly_once(proxy)

    @pytest.mark.parametrize("stage", ["backend.post", "deduper.key"])
    def test_stage_exception_faults_every_member_at_once(self, fast_backend,
                                                         stage):
        def broken(*args):
            raise RuntimeError("injected stage failure")

        cfg = ProxyConfig(window_ms=20, force_mode="sem")
        with running_proxy(fast_backend, cfg) as proxy:
            owner, name = stage.split(".")
            setattr(getattr(proxy, owner), name, broken)
            bodies = ([soap.build_request_envelope("Search", ["dup"])] * 6
                      + [soap.build_request_envelope("Search", [f"u{i}"])
                         for i in range(4)])
            t0 = time.monotonic()
            results = concurrent_post(url_of(proxy), bodies)
            assert time.monotonic() - t0 < 1.0
            assert {s for s, _ in results} == {500}
            assert all(b"Fault" in c for _, c in results)
            health = proxy_health(proxy)
            assert health["stage_failures"] >= 1
            assert health["in_flight"] == 0
            assert_exactly_once(proxy)
        assert backend_calls(fast_backend) == 0

    @pytest.mark.parametrize("stage,status", [("backend.post", 500),
                                              ("deduper.key", 200)])
    def test_stage_exception_in_passthrough(self, fast_backend, stage, status):
        # a failed forward faults only its own client, and passthrough never
        # builds a key, so a broken key stage faults nobody
        calls = []

        def broken(*args):
            calls.append(args)
            raise RuntimeError("injected stage failure")

        cfg = ProxyConfig(window_ms=20, force_mode="passthrough")
        with running_proxy(fast_backend, cfg) as proxy:
            owner, name = stage.split(".")
            setattr(getattr(proxy, owner), name, broken)
            bodies = ([soap.build_request_envelope("Search", ["dup"])] * 6
                      + [soap.build_request_envelope("Search", [f"u{i}"])
                         for i in range(4)])
            t0 = time.monotonic()
            results = concurrent_post(url_of(proxy), bodies)
            assert time.monotonic() - t0 < 1.0
            assert {s for s, _ in results} == {status}
            assert len(calls) == (len(bodies) if stage == "backend.post" else 0)
            health = proxy_health(proxy)
            assert health["stage_failures"] == len(calls)
            assert health["in_flight"] == 0
            assert_exactly_once(proxy)

    @pytest.mark.parametrize("mode", ["sem", "passthrough"])
    def test_client_that_closed_while_waiting_counts_as_dropped(
            self, slow_backend, mode):
        cfg = ProxyConfig(window_ms=20, force_mode=mode)
        body = soap.build_request_envelope("Search", ["x"])
        with running_proxy(slow_backend, cfg) as proxy:
            with socket.create_connection(proxy.address, timeout=5) as gone:
                gone.sendall(b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                             % (len(body), body))
                time.sleep(0.05)
            # closed with a FIN while the backend call is in flight

            def answered():
                health = proxy.health()
                return health["delivered"] + health["dropped_disconnects"]
            wait_for(lambda: answered() == 1)
            health = proxy_health(proxy)
            assert health["admitted"] == 1
            assert health["dropped_disconnects"] == 1
            assert health["delivered"] == 0
            assert backend_calls(slow_backend) == 1
            assert_exactly_once(proxy)

    def test_stop_answers_in_flight_and_closes_connections(self, slow_backend):
        from semproxy import proxy as px
        cfg = ProxyConfig(window_ms=300, force_mode="sem")
        cfg.backend_url = url_of(slow_backend)
        proxy = px.serve(("127.0.0.1", 0), cfg)
        idle = socket.create_connection(proxy.address, timeout=5)
        replies = []
        sender = threading.Thread(target=lambda: replies.append(post(
            url_of(proxy), soap.build_request_envelope("Search", ["x"]))))
        try:
            sender.start()
            deadline = time.monotonic() + 5
            while proxy.health()["in_flight"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            proxy.stop()
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert [r.status_code for r in replies] == [200]
            assert idle.recv(1) == b""  # the idle keep-alive client is closed
        finally:
            idle.close()


def pending_sizes(proxy):
    """Member count of each backend call in flight, read on the loop: its
    leader, plus one joiner per done callback on the call's future, which
    each joiner's ``asyncio.shield`` adds and removes when it stops
    waiting."""
    async def read():
        return [1 + len(call.future._callbacks or ())
                for call in proxy._calls.values() if not call.future.done()]
    return asyncio.run_coroutine_threadsafe(read(), proxy._loop).result(5)


def admission_marks(proxy):
    """Size of the proxy's map of calls in flight and reusable replies,
    read on the loop."""
    async def read():
        return len(proxy._calls)
    return asyncio.run_coroutine_threadsafe(read(), proxy._loop).result(5)


def wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.005)


@pytest.fixture
def slow_backend():
    # each call takes 400 ms: long enough for later windows to overlap it
    with running_backend(MockBackendConfig(
            compute_delay_ms=400, rows_per_response=5,
            per_row_serialize_cost_us=10)) as backend:
        yield backend


class TestSingleFlight:
    """A request whose key has a backend call in flight, started in its
    window or an earlier one, joins that call instead of making its own."""

    @pytest.fixture(autouse=True)
    def background(self):
        with cf.ThreadPoolExecutor(2) as ex:
            self.in_background = ex.submit
            yield

    def test_two_windows_on_one_key_make_one_call(self, slow_backend):
        cfg = ProxyConfig(window_ms=20, force_mode="sem")
        body = soap.build_request_envelope("Search", ["hot"])
        with running_proxy(slow_backend, cfg) as proxy:
            first = self.in_background(post, url_of(proxy), body)
            wait_for(lambda: pending_sizes(proxy) == [1])
            second = post(url_of(proxy), body)
            first = first.result(timeout=10)
            assert first.status_code == second.status_code == 200
            assert first.content == second.content
            assert backend_calls(slow_backend) == 1
            health = proxy_health(proxy)
            assert health["singleflight_joins"] == 1
            assert health["backend_calls"] == 1
            assert pending_sizes(proxy) == []
            assert_exactly_once(proxy)

    def test_request_joins_a_call_in_flight_at_admission(self, slow_backend):
        # the second post's window closes well after the call completes,
        # so only a join at admission saves its call
        cfg = ProxyConfig(window_ms=1000, force_mode="sem")
        body = soap.build_request_envelope("Search", ["hot"])
        with running_proxy(slow_backend, cfg) as proxy:
            first = self.in_background(post, url_of(proxy), body)
            wait_for(lambda: pending_sizes(proxy) == [1])
            second = post(url_of(proxy), body)
            first = first.result(timeout=10)
            assert first.status_code == second.status_code == 200
            assert first.content == second.content
            assert backend_calls(slow_backend) == 1
            assert proxy_health(proxy)["singleflight_joins"] == 1
            assert_exactly_once(proxy)

    def test_reply_that_outlived_its_window_is_not_reused(self, slow_backend):
        # the call completes after its window closed, so a post made after
        # it, into an idle proxy, must not get its aging reply
        cfg = ProxyConfig(window_ms=20, force_mode="sem")
        body = soap.build_request_envelope("Search", ["hot"])
        with running_proxy(slow_backend, cfg) as proxy:
            assert post(url_of(proxy), body).status_code == 200
            time.sleep(0.2)
            assert post(url_of(proxy), body).status_code == 200
            assert backend_calls(slow_backend) == 2
            assert admission_marks(proxy) == 0
            assert_exactly_once(proxy)

    def test_denylisted_operation_never_joins(self, slow_backend):
        cfg = ProxyConfig(window_ms=20, force_mode="sem",
                          operation_denylist=["Search"])
        body = soap.build_request_envelope("Search", ["hot"])
        with running_proxy(slow_backend, cfg) as proxy:
            first = self.in_background(post, url_of(proxy), body)
            wait_for(lambda: proxy.health()["backend_calls"] == 1)
            assert pending_sizes(proxy) == []  # a None key never registers
            second = post(url_of(proxy), body)
            assert first.result(timeout=10).status_code == 200
            assert second.status_code == 200
            assert backend_calls(slow_backend) == 2
            assert proxy_health(proxy)["singleflight_joins"] == 0
            assert_exactly_once(proxy)

    def test_raising_call_faults_every_joiner(self, fast_backend):
        async def slow_failure(*args):
            await asyncio.sleep(0.3)
            raise RuntimeError("injected stage failure")

        cfg = ProxyConfig(window_ms=20, force_mode="sem")
        body = soap.build_request_envelope("Search", ["hot"])
        with running_proxy(fast_backend, cfg) as proxy:
            proxy.backend.post = slow_failure
            t0 = time.monotonic()
            first = self.in_background(post, url_of(proxy), body)
            wait_for(lambda: pending_sizes(proxy) == [1])
            results = concurrent_post(url_of(proxy), [body] * 3)
            results.append((first.result(timeout=10).status_code, None))
            assert time.monotonic() - t0 < 1.0
            assert {s for s, _ in results} == {500}
            health = proxy_health(proxy)
            assert health["singleflight_joins"] >= 1
            assert health["backend_calls"] == 1
            assert health["stage_failures"] == 1
            assert health["in_flight"] == 0
            assert pending_sizes(proxy) == []
            assert_exactly_once(proxy)

    def test_non_200_reply_reaches_joiners_but_is_not_reused(
            self, fast_backend):
        calls = []

        async def slow_error(*args):
            calls.append(args)
            await asyncio.sleep(0.3)
            return 500, b"backend fault %d" % len(calls)

        cfg = ProxyConfig(window_ms=2000, force_mode="sem")
        body = soap.build_request_envelope("Search", ["hot"])
        with running_proxy(fast_backend, cfg) as proxy:
            proxy.backend.post = slow_error
            sleep_to_window_start(proxy)
            windows = proxy_health(proxy)["flushed_batches"]
            first = self.in_background(post, url_of(proxy), body)
            wait_for(lambda: pending_sizes(proxy) == [1])
            joiners = concurrent_post(url_of(proxy), [body] * 2)
            results = [(first.result(timeout=10).status_code,
                        first.result().content), *joiners]
            assert results == [(500, b"backend fault 1")] * 3
            # the same window: a failed reply is not reused
            later = post(url_of(proxy), body)
            assert (later.status_code, later.content) == (
                500, b"backend fault 2")
            assert proxy_health(proxy)["flushed_batches"] == windows + 1
            assert len(calls) == 2
            assert proxy_health(proxy)["singleflight_joins"] == 2
            assert_exactly_once(proxy)

    def test_joiner_whose_client_left_counts_as_dropped(self, slow_backend):
        cfg = ProxyConfig(window_ms=20, force_mode="sem")
        body = soap.build_request_envelope("Search", ["hot"])
        with running_proxy(slow_backend, cfg) as proxy:
            first = self.in_background(post, url_of(proxy), body)
            wait_for(lambda: pending_sizes(proxy) == [1])
            gone = socket.create_connection(proxy.address, timeout=5)
            gone.sendall(b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                         % (len(body), body))
            wait_for(lambda: pending_sizes(proxy) == [2])
            # close with a reset, so the reply cannot be written
            gone.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            gone.close()
            assert first.result(timeout=10).status_code == 200
            wait_for(lambda: proxy.health()["dropped_disconnects"] == 1)
            health = proxy_health(proxy)
            assert health["singleflight_joins"] == 1
            assert health["delivered"] == 1
            assert backend_calls(slow_backend) == 1
            assert_exactly_once(proxy)

    def test_joiner_that_times_out_leaves_the_call_to_the_others(self):
        body = soap.build_request_envelope("Search", ["hot"])
        with running_backend(MockBackendConfig(
                compute_delay_ms=600, rows_per_response=5,
                per_row_serialize_cost_us=10)) as backend:
            cfg = ProxyConfig(window_ms=20, force_mode="sem")
            with running_proxy(backend, cfg) as proxy:
                first = self.in_background(post, url_of(proxy), body)
                wait_for(lambda: pending_sizes(proxy) == [1])
                joiner = self.in_background(post, url_of(proxy), body)
                wait_for(lambda: pending_sizes(proxy) == [2])
                proxy._pipeline_timeout_s = 0.1  # the next joiner's bound
                late = post(url_of(proxy), body)
                assert late.status_code == 504
                assert pending_sizes(proxy) == [2]
                assert first.result(timeout=10).status_code == 200
                assert joiner.result(timeout=10).status_code == 200
                assert first.result().content == joiner.result().content
                assert backend_calls(backend) == 1
                health = proxy_health(proxy)
                assert health["singleflight_joins"] == 2
                assert health["dropped_disconnects"] == 1
                assert health["delivered"] == 2
                assert_exactly_once(proxy)

    def test_stop_mid_flight_answers_every_joiner(self, slow_backend):
        from semproxy import proxy as px
        cfg = ProxyConfig(window_ms=20, force_mode="sem")
        cfg.backend_url = url_of(slow_backend)
        body = soap.build_request_envelope("Search", ["hot"])
        proxy = px.serve(("127.0.0.1", 0), cfg)
        try:
            first = self.in_background(post, url_of(proxy), body)
            wait_for(lambda: pending_sizes(proxy) == [1])
            joiners = self.in_background(
                concurrent_post, url_of(proxy), [body] * 2)
            wait_for(lambda: pending_sizes(proxy) == [3])
        finally:
            proxy.stop()
        results = [(first.result(timeout=10).status_code, None),
                   *joiners.result(timeout=10)]
        assert [s for s, _ in results] == [200] * 3
        assert backend_calls(slow_backend) == 1
        assert proxy.health()["singleflight_joins"] >= 1
        assert proxy._calls == {}

    def test_window_close_forgets_the_replies_it_reused(self, fast_backend):
        # each call completes inside its window, so only the expiry timer
        # armed for the window's end takes its reply out of the map
        cfg = ProxyConfig(window_ms=200, force_mode="sem")
        bodies = [soap.build_request_envelope("Search", [f"k{i}"])
                  for i in range(3)]
        with running_proxy(fast_backend, cfg) as proxy:
            with requests.Session() as s:
                sleep_to_window_start(proxy, margin_s=0.01)
                for body in bodies * 2:
                    assert s.post(url_of(proxy), data=body,
                                  timeout=10).status_code == 200
                assert backend_calls(fast_backend) == 3
                assert admission_marks(proxy) == 3
                time.sleep(0.3)  # past the window's end, with no traffic
                assert admission_marks(proxy) == 0
            assert_exactly_once(proxy)

    def test_reply_is_not_reused_past_its_window_before_its_timer_fires(
            self, fast_backend):
        # the expiry timer may fire late: until it does, expires_at alone
        # keeps a later window from reusing the reply, and when it fires it
        # must leave the key's new call in the map
        cfg = ProxyConfig(window_ms=300, force_mode="sem")
        body = soap.build_request_envelope("Search", ["hot"])
        with running_proxy(fast_backend, cfg) as proxy:
            timers = []
            proxy._expire = lambda key, call: timers.append((key, call))
            with requests.Session() as s:
                sleep_to_window_start(proxy, margin_s=0.01)
                first = s.post(url_of(proxy), data=body, timeout=10)
                wait_for(lambda: len(timers) == 1)  # its window has ended
                assert admission_marks(proxy) == 1
                sleep_to_window_start(proxy, margin_s=0.01)
                second = s.post(url_of(proxy), data=body, timeout=10)
            assert first.status_code == second.status_code == 200
            assert backend_calls(fast_backend) == 2

            async def late_timer():
                key, call = timers[0]
                SemProxy._expire(proxy, key, call)
                return call, proxy._calls.get(key)
            old, new = asyncio.run_coroutine_threadsafe(
                late_timer(), proxy._loop).result(5)
            assert new is not None and new is not old
            assert_exactly_once(proxy)

    def test_hot_run_leaves_nothing_pending(self):
        health = self.hot_run(cache_enabled=False)
        assert health["singleflight_joins"] > 0

    def test_hot_cached_run_leaves_nothing_pending(self):
        assert self.hot_run(cache_enabled=True)["cache_hits"] > 0

    def hot_run(self, cache_enabled):
        """240 posts over 3 keys from 8 callers; checks that no request
        or call is left behind, and returns the proxy's health."""
        bodies = [soap.build_request_envelope("Search", [f"k{i % 3}"])
                  for i in range(240)]
        with running_backend(MockBackendConfig(
                compute_delay_ms=5, rows_per_response=5,
                per_row_serialize_cost_us=10)) as backend:
            cfg = ProxyConfig(window_ms=2, force_mode="sem",
                              cache_enabled=cache_enabled)
            with running_proxy(backend, cfg) as proxy:
                statuses = posts_from_callers(url_of(proxy), bodies)
                assert statuses == [200] * 240
                time.sleep(0.05)  # every window closed
                health = proxy_health(proxy)
                assert health["in_flight"] == 0
                assert pending_sizes(proxy) == []
                assert admission_marks(proxy) == 0
                assert health["backend_calls"] == backend_calls(backend)
                assert health["admitted"] == health["delivered"] == 240
                assert_exactly_once(proxy)
                return health


def loaded_by(modules, name):
    """Whether importing modules in a fresh interpreter loads module name."""
    import semproxy
    src = str(Path(semproxy.__file__).resolve().parents[1])
    code = f"import sys, {modules}; print({name!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


class TestNoRequestsOnServerPath:
    def test_server_modules_do_not_import_requests(self):
        assert not loaded_by("semproxy.cli, semproxy.proxy, semproxy.loadgen, "
                             "semproxy.mock_backend", "requests")

    def test_proxy_does_not_import_the_gate(self):
        # the proxy always coalesces unless forced to passthrough
        assert not loaded_by("semproxy.cli, semproxy.proxy", "semproxy.gate")

    def test_environment_proxy_is_not_used_for_the_backend(
            self, fast_backend, monkeypatch):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            closed_port = s.getsockname()[1]
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, f"http://127.0.0.1:{closed_port}")
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with running_proxy(fast_backend, ProxyConfig(window_ms=5)) as proxy:
            conn = http.client.HTTPConnection(*proxy.address, timeout=10)
            try:
                conn.request("POST", "/",
                             soap.build_request_envelope("Search", ["x"]),
                             {"Content-Type": "text/xml; charset=utf-8"})
                resp = conn.getresponse()
                assert resp.status == 200, resp.read()
            finally:
                conn.close()
