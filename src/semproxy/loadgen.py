"""Load generator: an open-loop schedule over concurrent keep-alive clients.

``run_scenario`` sends ``rate * duration_s`` requests. Request i is due
``i / rate`` seconds after the start and is sent then, or as soon as one of
the ``clients`` connections is free if it is late. The clients are tasks on
one asyncio loop sharing one ``http11.BackendPool``, the keep-alive client
the proxy uses toward its backend; ``clients=1`` sends the requests one
after another.

Requests are reproducible: the parameter tuple for index i depends only on
(seed, i). Similarity is modelled as one hot tuple drawn with probability
similarity_pct/100, every other draw being a globally unique cold tuple.
"""

from __future__ import annotations

import asyncio
import csv
import random
import string
import time
from dataclasses import dataclass, field
from typing import Optional

from . import http11, soap

_CHARS = string.ascii_lowercase + string.digits


@dataclass
class ScenarioConfig:
    rate: float = 100.0  # requests/sec
    clients: int = 8
    duration_s: float = 5.0
    similarity_pct: float = 50.0
    param_collection: Optional[list[tuple[str, ...]]] = None
    param_length: int = 15
    seed: int = 0
    operation: str = "Search"
    request_timeout_s: float = 60.0

    def __post_init__(self):
        if not 0 <= self.similarity_pct <= 100:
            raise ValueError("similarity_pct must be in [0, 100]")
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")


@dataclass
class RunReport:
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    response_time_mean_ms: float = 0.0
    response_time_p50_ms: float = 0.0
    response_time_p95_ms: float = 0.0
    response_time_max_ms: float = 0.0
    achieved_rps: float = 0.0
    per_second: list[int] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)


def _rand_token(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(length))


def hot_tuple(cfg: ScenarioConfig) -> tuple[str, ...]:
    """The designated hot parameter tuple of the collection."""
    if cfg.param_collection:
        return tuple(cfg.param_collection[0])
    rng = random.Random(f"{cfg.seed}:hot")
    return (_rand_token(rng, cfg.param_length),)


def generate_params(cfg: ScenarioConfig, i: int) -> tuple[str, ...]:
    """Parameter tuple for request index i; deterministic in (seed, i)."""
    rng = random.Random(f"{cfg.seed}:{i}")
    if rng.random() * 100.0 < cfg.similarity_pct:
        return hot_tuple(cfg)
    arity = len(hot_tuple(cfg))
    out = []
    for slot in range(arity):
        # the index prefix guarantees global uniqueness of cold tuples
        prefix = f"u{i}x{slot}x"
        pad = max(cfg.param_length - len(prefix), 0)
        out.append(prefix + _rand_token(rng, pad))
    return tuple(out)


def generate_request(cfg: ScenarioConfig, i: int) -> bytes:
    return soap.build_request_envelope(cfg.operation, generate_params(cfg, i))


def _aggregate(report: RunReport, wall_s: float) -> None:
    lats = sorted(report.latencies_ms)
    if lats:
        report.response_time_mean_ms = sum(lats) / len(lats)
        report.response_time_p50_ms = lats[len(lats) // 2]
        report.response_time_p95_ms = lats[min(int(len(lats) * 0.95), len(lats) - 1)]
        report.response_time_max_ms = lats[-1]
    report.achieved_rps = report.succeeded / wall_s if wall_s > 0 else 0.0


def run_scenario(cfg: ScenarioConfig, target_url: str) -> RunReport:
    total = int(cfg.rate * cfg.duration_s)
    report = RunReport()
    if total == 0:
        return report
    report.per_second = [0] * (int(cfg.duration_s) + 1)
    asyncio.run(_run(cfg, target_url, total, report))
    return report


async def _run(cfg: ScenarioConfig, target_url: str, total: int,
               report: RunReport) -> None:
    pool = http11.BackendPool(target_url, cfg.clients, cfg.request_timeout_s,
                              cfg.request_timeout_s)
    action = cfg.operation.encode()
    indices = iter(range(total))  # shared: each client takes the next index
    start = time.monotonic()

    async def client() -> None:
        for i in indices:
            delay = start + i / cfg.rate - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            body = generate_request(cfg, i)
            t0 = time.monotonic()
            try:
                status, _ = await pool.post(body, action)
            except http11.POST_ERRORS:
                status = None
            t1 = time.monotonic()
            report.sent += 1
            if status == 200:
                report.succeeded += 1
                report.latencies_ms.append((t1 - t0) * 1000.0)
                sec = int(t1 - start)
                if sec < len(report.per_second):
                    report.per_second[sec] += 1
            else:
                report.failed += 1

    try:
        await asyncio.gather(*(client() for _ in range(cfg.clients)))
    finally:
        await pool.close()
    _aggregate(report, time.monotonic() - start)


REPORT_CSV_COLUMNS = [
    "sent", "succeeded", "failed", "achieved_rps",
    "response_time_mean_ms", "response_time_p50_ms",
    "response_time_p95_ms", "response_time_max_ms",
]


def write_report_csv(report: RunReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_COLUMNS + ["second", "completed"])
        base = [getattr(report, c) for c in REPORT_CSV_COLUMNS]
        if not report.per_second:
            writer.writerow(base + ["", ""])
        for sec, n in enumerate(report.per_second):
            writer.writerow(base + [sec, n])
