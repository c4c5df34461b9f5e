"""Adaptive routing gate: coalesce or pass straight through.

Tracks an exponentially weighted moving average of per-batch duplicate
ratios and of per-request analysis cost. Coalescing is entered when the
ratio EWMA clears enter_threshold and left when it drops under
exit_threshold; inside the hysteresis band the previous mode sticks.
Analysis overhead above a fraction of mean backend service time forces
passthrough regardless of ratio.

The proxy does not run the gate: it coalesces unless configured with
``force_mode: "passthrough"``. The gate stays as a library for acceptance
criterion 8 and the layer replay in ``bench/layers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class GateMode(Enum):
    SEM = "sem"
    PASSTHROUGH = "passthrough"


@dataclass(frozen=True)
class GateObservation:
    batch_id: int
    duplicate_ratio: float
    analysis_cost_ns: int
    batch_size: int


@dataclass(frozen=True)
class GateDecision:
    mode: GateMode
    reason: str


@dataclass
class GateConfig:
    enter_threshold: float = 0.35
    exit_threshold: float = 0.20
    alpha: float = 0.3
    overhead_budget_pct: float = 20.0


class AdaptiveGate:
    """Single-threaded by contract: called only from the dedup stage."""

    def __init__(self, config: GateConfig = None):
        self.config = config or GateConfig()
        if self.config.exit_threshold > self.config.enter_threshold:
            raise ValueError("exit threshold must not exceed enter threshold")
        self._ratio_ewma: Optional[float] = None
        self._cost_ewma: Optional[float] = None  # ns per request
        self._service_ewma: Optional[float] = None  # backend ns per call
        self._mode = GateMode.SEM
        self._observations = 0

    @property
    def ratio_ewma(self) -> Optional[float]:
        return self._ratio_ewma

    @property
    def mode(self) -> GateMode:
        return self._mode

    def observe(self, obs: GateObservation) -> None:
        a = self.config.alpha
        per_req = obs.analysis_cost_ns / obs.batch_size if obs.batch_size else 0.0
        if self._ratio_ewma is None:
            self._ratio_ewma = obs.duplicate_ratio
            self._cost_ewma = per_req
        else:
            self._ratio_ewma = a * obs.duplicate_ratio + (1 - a) * self._ratio_ewma
            self._cost_ewma = a * per_req + (1 - a) * self._cost_ewma
        self._observations += 1

    def note_service_time(self, backend_ns: int) -> None:
        a = self.config.alpha
        if self._service_ewma is None:
            self._service_ewma = float(backend_ns)
        else:
            self._service_ewma = a * backend_ns + (1 - a) * self._service_ewma

    def decide(self) -> GateDecision:
        if self._observations == 0:
            raise RuntimeError("decide() requires at least one observation")
        cfg = self.config
        if (
            self._service_ewma is not None
            and self._cost_ewma is not None
            and self._cost_ewma > self._service_ewma * cfg.overhead_budget_pct / 100.0
        ):
            self._mode = GateMode.PASSTHROUGH
            reason = "analysis overhead exceeds budget"
        elif self._ratio_ewma >= cfg.enter_threshold:
            self._mode = GateMode.SEM
            reason = f"ratio ewma {self._ratio_ewma:.3f} >= {cfg.enter_threshold}"
        elif self._ratio_ewma <= cfg.exit_threshold:
            self._mode = GateMode.PASSTHROUGH
            reason = f"ratio ewma {self._ratio_ewma:.3f} <= {cfg.exit_threshold}"
        else:
            reason = "inside hysteresis band; holding previous mode"
        return GateDecision(mode=self._mode, reason=reason)
