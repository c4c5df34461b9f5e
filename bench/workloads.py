"""The benchmark's traffic mixes and their seeded request streams.

A workload fixes the mock backend's cost model, the proxy's JSON config and
the shape of the request stream. The stream itself comes from
``semproxy.loadgen.generate_params``: request ``i`` of seed ``s`` is the same
on every run, so the program only ever sees generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from semproxy import loadgen

OPERATION = "Search"
HEADERS = {"Content-Type": "text/xml; charset=utf-8",
           "SOAPAction": f'"{OPERATION}"'}
# Mean of the exponential pause a caller takes before each request. Without
# it the two callers lock into step (both in one window, or one backend
# service time apart) for seconds at a time, and runs differ by the lock.
THINK_MEAN_S = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    similarity_pct: float
    param_length: int
    # mock backend cost model (sem-mockbackend flags); serialized by default
    delay_ms: float
    rows: int
    row_cost_us: float
    # keys of semproxy.config.ProxyConfig written to the --config file
    proxy_config: dict = field(default_factory=dict)
    # every request must reach the backend (no grouping can apply)
    exact_calls: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cold-small",
        similarity_pct=0, param_length=15,
        delay_ms=0.0, rows=10, row_cost_us=0.0,
        exact_calls=True,
    ),
    Workload(
        name="hot-large",
        similarity_pct=90, param_length=15,
        delay_ms=1.0, rows=200, row_cost_us=50.0,
        proxy_config={"force_mode": "sem"},
    ),
    Workload(
        name="half-longkey-cache",
        similarity_pct=50, param_length=80,
        delay_ms=0.2, rows=20, row_cost_us=10.0,
        proxy_config={"force_mode": "sem", "cache_enabled": True},
    ),
)}


class Stream:
    """Request ``i`` of a workload's seeded stream, bodies memoized."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.cfg = loadgen.ScenarioConfig(
            similarity_pct=workload.similarity_pct,
            param_length=workload.param_length,
            seed=seed,
            operation=OPERATION,
        )
        self._bodies: dict[int, bytes] = {}
        self._seed = seed

    def params(self, i: int) -> tuple[str, ...]:
        return loadgen.generate_params(self.cfg, i)

    def hot(self) -> tuple[str, ...]:
        return loadgen.hot_tuple(self.cfg)

    def think_s(self, i: int) -> float:
        """Pause before sending request ``i``; deterministic in (seed, i)."""
        return random.Random(f"{self._seed}:think:{i}").expovariate(
            1.0 / THINK_MEAN_S)

    def body(self, i: int) -> bytes:
        body = self._bodies.get(i)
        if body is None:
            body = loadgen.generate_request(self.cfg, i)
            self._bodies[i] = body
        return body

    def prebuild(self, count: int) -> None:
        """Build the first ``count`` bodies before any timing starts."""
        for i in range(count):
            self.body(i)

