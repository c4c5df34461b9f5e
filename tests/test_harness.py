import http.client
import math
import statistics
import time

import pytest
import requests

from conftest import running_backend, url_of
from semproxy import soap
from semproxy.loadgen import (ScenarioConfig, generate_params,
                              generate_request, hot_tuple, run_scenario,
                              write_report_csv)
from semproxy.mock_backend import MockBackendConfig


class TestGenerator:
    def test_full_similarity_all_identical(self):
        cfg = ScenarioConfig(similarity_pct=100, seed=1)
        tuples = {generate_params(cfg, i) for i in range(500)}
        assert tuples == {hot_tuple(cfg)}

    def test_zero_similarity_all_distinct(self):
        cfg = ScenarioConfig(similarity_pct=0, seed=1)
        tuples = [generate_params(cfg, i) for i in range(500)]
        assert len(set(tuples)) == 500

    def test_half_similarity_binomial_bound(self):
        n = 10_000
        cfg = ScenarioConfig(similarity_pct=50, seed=7)
        hot = hot_tuple(cfg)
        hits = sum(generate_params(cfg, i) == hot for i in range(n))
        assert abs(hits / n - 0.5) < 0.02

    def test_deterministic_given_seed_and_index(self):
        cfg = ScenarioConfig(similarity_pct=30, seed=5)
        stream1 = [generate_request(cfg, i) for i in range(200)]
        stream2 = [generate_request(cfg, i) for i in range(200)]
        assert stream1 == stream2

    def test_different_seeds_differ(self):
        a = ScenarioConfig(similarity_pct=0, seed=1)
        b = ScenarioConfig(similarity_pct=0, seed=2)
        assert ([generate_params(a, i) for i in range(50)]
                != [generate_params(b, i) for i in range(50)])

    def test_param_length_respected(self):
        cfg = ScenarioConfig(similarity_pct=0, seed=1, param_length=35)
        for i in range(100):
            for value in generate_params(cfg, i):
                assert len(value) == 35

    def test_envelopes_parse_back(self):
        cfg = ScenarioConfig(similarity_pct=40, seed=3)
        for i in range(50):
            req = soap.parse_request(generate_request(cfg, i), {})
            assert req.operation == "Search"
            assert req.parameters == generate_params(cfg, i)

    def test_explicit_param_collection(self):
        cfg = ScenarioConfig(similarity_pct=100,
                             param_collection=[("alpha", "beta")])
        assert generate_params(cfg, 0) == ("alpha", "beta")

    def test_invalid_similarity_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(similarity_pct=120)

    def test_clients_below_one_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(clients=0)


class TestMockBackend:
    def test_identical_params_byte_identical_responses(self, fast_backend):
        body = soap.build_request_envelope("Search", ["dog"])
        r1 = requests.post(url_of(fast_backend), data=body, timeout=10)
        r2 = requests.post(url_of(fast_backend), data=body, timeout=10)
        assert r1.status_code == r2.status_code == 200
        assert r1.content == r2.content

    def test_different_params_different_responses(self, fast_backend):
        r1 = requests.post(url_of(fast_backend),
                           data=soap.build_request_envelope("Search", ["a"]),
                           timeout=10)
        r2 = requests.post(url_of(fast_backend),
                           data=soap.build_request_envelope("Search", ["b"]),
                           timeout=10)
        assert r1.content != r2.content

    def test_row_count_matches_config(self, fast_backend):
        body = soap.build_request_envelope("Search", ["dog"])
        resp = requests.post(url_of(fast_backend), data=body, timeout=10)
        assert len(soap.parse_response(resp.content).rows) == 5

    def test_unknown_operation_faults(self, fast_backend):
        body = soap.build_request_envelope("Destroy", ["x"])
        resp = requests.post(url_of(fast_backend), data=body, timeout=10)
        assert resp.status_code == 400
        assert b"Fault" in resp.content

    def test_compute_delay_floor(self):
        with running_backend(MockBackendConfig(
                compute_delay_ms=5, rows_per_response=1,
                per_row_serialize_cost_us=0)) as backend:
            body = soap.build_request_envelope("Search", ["x"])
            t0 = time.monotonic()
            requests.post(url_of(backend), data=body, timeout=10)
            assert time.monotonic() - t0 >= 0.005

    def test_serial_keep_alive_posts_do_not_stall(self, fast_backend):
        # a reply split over two sends waits ~40 ms for a delayed ACK
        body = soap.build_request_envelope("Search", ["dog"])
        conn = http.client.HTTPConnection(*fast_backend.address, timeout=10)
        try:
            times = []
            for _ in range(20):
                t0 = time.monotonic()
                conn.request("POST", "/", body,
                             {"Content-Type": "text/xml; charset=utf-8"})
                resp = conn.getresponse()
                resp.read()
                times.append(time.monotonic() - t0)
                assert resp.status == 200
        finally:
            conn.close()
        assert statistics.median(times) < 0.020

    def test_serialization_cost_scales_with_rows(self):
        def timed(rows):
            with running_backend(MockBackendConfig(
                    compute_delay_ms=0, rows_per_response=rows,
                    per_row_serialize_cost_us=50)) as backend:
                body = soap.build_request_envelope("Search", ["x"])
                best = math.inf
                for _ in range(3):
                    t0 = time.monotonic()
                    requests.post(url_of(backend), data=body, timeout=10)
                    best = min(best, time.monotonic() - t0)
                return best
        # 100 vs 10 rows at 50 us/row differ by about 4.5 ms
        delta_ms = (timed(100) - timed(10)) * 1000
        assert 2.0 < delta_ms < 20.0


class TestRunScenario:
    def test_rate_zero_empty_report(self):
        report = run_scenario(ScenarioConfig(rate=0, duration_s=1),
                              "http://127.0.0.1:1/")
        assert report.sent == 0

    def test_serial_mode_runs_in_order(self, fast_backend):
        cfg = ScenarioConfig(clients=1, rate=50, duration_s=0.2,
                             similarity_pct=100, seed=2)
        report = run_scenario(cfg, url_of(fast_backend))
        assert report.sent == 10
        assert report.succeeded == 10
        assert report.failed == 0
        assert report.response_time_max_ms >= report.response_time_p95_ms

    def test_concurrent_mode_counts(self, fast_backend):
        cfg = ScenarioConfig(rate=100, duration_s=0.5,
                             clients=4, similarity_pct=50, seed=2)
        report = run_scenario(cfg, url_of(fast_backend))
        assert report.sent == 50
        assert report.sent == report.succeeded + report.failed
        assert report.achieved_rps > 0

    def test_connection_failures_counted(self):
        cfg = ScenarioConfig(clients=1, rate=20, duration_s=0.2,
                             request_timeout_s=0.5)
        report = run_scenario(cfg, "http://127.0.0.1:1/")
        assert report.failed == report.sent == 4

    def test_report_csv(self, fast_backend, tmp_path):
        cfg = ScenarioConfig(clients=1, rate=20, duration_s=0.2, seed=1)
        report = run_scenario(cfg, url_of(fast_backend))
        out = tmp_path / "report.csv"
        write_report_csv(report, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("sent,succeeded,failed")
        assert len(lines) >= 2
