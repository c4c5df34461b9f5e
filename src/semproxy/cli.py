"""Command-line entry points: sem-proxy, sem-loadgen, sem-mockbackend."""

from __future__ import annotations

import argparse
import signal
import threading

from .config import ProxyConfig
from .mock_backend import MockBackendConfig
from . import mock_backend, proxy


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def _wait_for_signal() -> None:
    done = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: done.set())
    done.wait()


def main_proxy(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="sem-proxy",
        description="Request-coalescing SOAP reverse proxy")
    ap.add_argument("--listen", default="127.0.0.1:8080", metavar="ADDR:PORT")
    ap.add_argument("--backend", default=None, metavar="URL")
    ap.add_argument("--config", default=None, metavar="FILE",
                    help="JSON config file (keys match ProxyConfig)")
    ap.add_argument("--metrics-csv", default=None, metavar="FILE",
                    help="write per-interval metric snapshots on shutdown")
    args = ap.parse_args(argv)
    cfg = ProxyConfig.from_file(args.config) if args.config else ProxyConfig()
    if args.backend:
        cfg.backend_url = args.backend
    p = proxy.serve(_parse_addr(args.listen), cfg)
    print(f"sem-proxy listening on {p.address[0]}:{p.address[1]} "
          f"-> {cfg.backend_url}")
    try:
        _wait_for_signal()
    finally:
        p.stop(metrics_csv=args.metrics_csv)
    return 0


def main_mockbackend(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="sem-mockbackend",
        description="Deterministic mock SOAP search backend")
    ap.add_argument("--listen", default="127.0.0.1:8081", metavar="ADDR:PORT")
    ap.add_argument("--delay-ms", type=float, default=1.0)
    ap.add_argument("--rows", type=int, default=10)
    ap.add_argument("--row-cost-us", type=float, default=50.0)
    ap.add_argument("--parallel", action="store_true",
                    help="do not serialize the emulated processing cost")
    args = ap.parse_args(argv)
    cfg = MockBackendConfig(
        compute_delay_ms=args.delay_ms,
        rows_per_response=args.rows,
        per_row_serialize_cost_us=args.row_cost_us,
        serial_processing=not args.parallel,
    )
    backend = mock_backend.serve(_parse_addr(args.listen), cfg)
    print(f"sem-mockbackend listening on {backend.address[0]}:{backend.address[1]}")
    try:
        _wait_for_signal()
    finally:
        backend.stop()
    return 0


def main_loadgen(argv=None) -> int:
    # imported here: the proxy and mock-backend processes never run the load
    # generator, and importing it raised their peak RSS by about 0.5 MB
    from .loadgen import ScenarioConfig, run_scenario, write_report_csv

    ap = argparse.ArgumentParser(
        prog="sem-loadgen", description="SOAP load generator")
    ap.add_argument("--target", required=True, metavar="URL")
    ap.add_argument("--rate", type=float, default=100.0)
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--duration", type=float, default=5.0)
    ap.add_argument("--similarity", type=float, default=50.0)
    ap.add_argument("--param-length", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, metavar="FILE")
    args = ap.parse_args(argv)
    cfg = ScenarioConfig(
        rate=args.rate, clients=args.clients,
        duration_s=args.duration, similarity_pct=args.similarity,
        param_length=args.param_length, seed=args.seed,
    )
    report = run_scenario(cfg, args.target)
    print(f"sent={report.sent} ok={report.succeeded} failed={report.failed} "
          f"rps={report.achieved_rps:.1f} "
          f"mean={report.response_time_mean_ms:.2f}ms "
          f"p95={report.response_time_p95_ms:.2f}ms")
    if args.out:
        write_report_csv(report, args.out)
    return 0
