import random

import pytest

from semproxy.gate import (AdaptiveGate, GateConfig, GateMode, GateObservation)


def obs(bid, ratio, cost_ns=1000, size=10):
    return GateObservation(batch_id=bid, duplicate_ratio=ratio,
                           analysis_cost_ns=cost_ns, batch_size=size)


def replay(gate, ratios):
    decisions = []
    for i, r in enumerate(ratios):
        gate.observe(obs(i, r))
        decisions.append(gate.decide())
    return decisions


class TestEwma:
    def test_first_observation_initializes(self):
        g = AdaptiveGate()
        g.observe(obs(0, 0.7))
        assert g.ratio_ewma == 0.7

    def test_constant_stream_is_fixed_point(self):
        g = AdaptiveGate()
        for i in range(100):
            g.observe(obs(i, 0.5))
        assert abs(g.ratio_ewma - 0.5) < 1e-12

    def test_alternating_oscillates_within_band(self):
        # alpha=0.5 alternating 0/1 converges to the (1/3, 2/3) cycle,
        # inside the open interval (0.25, 0.75)
        g = AdaptiveGate(GateConfig(alpha=0.5))
        values = []
        for i in range(200):
            g.observe(obs(i, float(i % 2)))
            if i >= 50:
                values.append(g.ratio_ewma)
        assert all(0.25 < v < 0.75 for v in values)
        lo, hi = min(values), max(values)
        assert abs(lo - 1 / 3) < 1e-6 and abs(hi - 2 / 3) < 1e-6


class TestDecide:
    def test_requires_observation(self):
        with pytest.raises(RuntimeError):
            AdaptiveGate().decide()

    def test_high_ratio_selects_sem(self):
        g = AdaptiveGate()
        g.observe(obs(0, 0.7))
        assert g.decide().mode is GateMode.SEM

    def test_zero_ratio_selects_passthrough(self):
        g = AdaptiveGate()
        g.observe(obs(0, 0.0))
        assert g.decide().mode is GateMode.PASSTHROUGH

    def test_hysteresis_band_retains_previous_mode(self):
        g = AdaptiveGate(GateConfig(enter_threshold=0.35, exit_threshold=0.20))
        g.observe(obs(0, 0.5))
        assert g.decide().mode is GateMode.SEM
        g._ratio_ewma = 0.28  # inside the band
        d = g.decide()
        assert d.mode is GateMode.SEM
        assert "hysteresis" in d.reason

        g2 = AdaptiveGate(GateConfig(enter_threshold=0.35, exit_threshold=0.20))
        g2.observe(obs(0, 0.0))
        assert g2.decide().mode is GateMode.PASSTHROUGH
        g2._ratio_ewma = 0.28
        assert g2.decide().mode is GateMode.PASSTHROUGH

    def test_overhead_budget_forces_passthrough(self):
        g = AdaptiveGate(GateConfig(overhead_budget_pct=20.0))
        g.note_service_time(1_000_000)  # 1 ms per backend call
        # 0.5 ms analysis per request >> 20% of 1 ms
        g.observe(obs(0, 0.9, cost_ns=5_000_000, size=10))
        d = g.decide()
        assert d.mode is GateMode.PASSTHROUGH
        assert "overhead" in d.reason

    def test_cheap_analysis_does_not_trip_budget(self):
        g = AdaptiveGate(GateConfig(overhead_budget_pct=20.0))
        g.note_service_time(1_000_000)
        g.observe(obs(0, 0.9, cost_ns=100_000, size=100))  # 1 us per request
        assert g.decide().mode is GateMode.SEM


class TestProperties:
    def test_replay_determinism(self):
        rng = random.Random(3)
        trace = [rng.random() for _ in range(500)]
        a = replay(AdaptiveGate(), trace)
        b = replay(AdaptiveGate(), trace)
        assert [d.mode for d in a] == [d.mode for d in b]
        assert [d.reason for d in a] == [d.reason for d in b]

    def test_no_thrashing_on_adversarial_oscillation(self):
        # inputs oscillating around the middle of the band never push the
        # EWMA across the full band, so the mode never changes
        g = AdaptiveGate(GateConfig(enter_threshold=0.35, exit_threshold=0.20,
                                    alpha=0.3))
        g.observe(obs(0, 0.275))
        g._mode = GateMode.SEM
        modes = set()
        for i in range(1, 2000):
            g.observe(obs(i, 0.21 if i % 2 else 0.34))
            modes.add(g.decide().mode)
        assert modes == {GateMode.SEM}

    def test_shift_trace_two_transitions(self):
        g = AdaptiveGate()
        trace = [0.8] * 50 + [0.0] * 50 + [0.8] * 50
        decisions = replay(g, trace)
        modes = [d.mode for d in decisions]
        transitions = sum(1 for a, b in zip(modes, modes[1:]) if a is not b)
        assert transitions == 2
        assert modes[0] is GateMode.SEM
        assert modes[75] is GateMode.PASSTHROUGH
        assert modes[-1] is GateMode.SEM

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveGate(GateConfig(enter_threshold=0.2, exit_threshold=0.3))
