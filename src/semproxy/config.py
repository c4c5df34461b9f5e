"""Proxy configuration: one flat key set covering every stage."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional


@dataclass
class ProxyConfig:
    # windowing: a reply is reused until the end of its leader's window
    window_ms: float = 2.0
    max_batch_size: int = 4096  # ignored by the proxy; read by bench/layers.py
    # response cache (staleness caveat: only enable against backends that
    # are deterministic over the TTL)
    cache_enabled: bool = False
    cache_ttl_ms: float = 100.0
    cache_capacity: int = 1024
    min_group_size: int = 2  # cache misses of a key before its reply is cached
    # the proxy coalesces unless this is "passthrough"; None means "sem"
    force_mode: Optional[str] = None
    # gate: ignored by the proxy, read only by the layer replay
    # (bench/layers.py)
    gate_enter: float = 0.35
    gate_exit: float = 0.20
    gate_alpha: float = 0.3
    overhead_budget_pct: float = 20.0
    # backend
    backend_url: str = "http://127.0.0.1:8081/"
    connect_timeout_s: float = 2.0
    request_timeout_s: float = 30.0
    max_connections: int = 32
    # operations never coalesced (non-idempotent backends)
    operation_denylist: list[str] = field(default_factory=list)
    # live metric snapshots
    metrics_interval_s: float = 1.0

    def __post_init__(self):
        if self.force_mode not in (None, "sem", "passthrough"):
            raise ValueError(
                'force_mode must be null, "sem" or "passthrough", '
                f"not {self.force_mode!r}")
        if not self.window_ms > 0:
            raise ValueError(f"window_ms must be positive, not {self.window_ms!r}")

    @classmethod
    def from_file(cls, path: str) -> "ProxyConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)
