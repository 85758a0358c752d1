"""Tests for the static counting baselines (and their failure in the dynamic setting)."""

from __future__ import annotations

import math

import pytest

from repro.engine.recorder import EstimateRecorder
from repro.engine.simulator import Simulator
from repro.protocols.static_counting import (
    AveragedMaximaCounting,
    AveragedMaximaState,
    MaxGrvCounting,
)


class TestMaxGrvCounting:
    def test_initial_state_is_grv(self, rng):
        protocol = MaxGrvCounting()
        samples = [protocol.initial_state(rng) for _ in range(200)]
        assert min(samples) >= 1
        assert any(s >= 2 for s in samples)

    def test_invalid_samples_per_agent(self):
        with pytest.raises(ValueError):
            MaxGrvCounting(samples_per_agent=0)

    def test_interaction_takes_max_both_ways(self, make_ctx):
        protocol = MaxGrvCounting()
        assert protocol.interact(2, 7, make_ctx()) == (7, 7)
        assert protocol.interact(7, 2, make_ctx()) == (7, 7)

    def test_output_is_float(self):
        assert MaxGrvCounting().output(5) == 5.0

    def test_converges_to_constant_factor_estimate(self):
        n = 300
        protocol = MaxGrvCounting()
        simulator = Simulator(protocol, n, seed=12)
        simulator.run(60)
        estimates = simulator.outputs()
        log_n = math.log2(n)
        assert len(set(estimates)) == 1  # consensus on the maximum
        assert 0.5 * log_n <= estimates[0] <= 4 * log_n

    def test_does_not_adapt_to_population_drop(self):
        """The paper's motivation: static protocols keep the stale maximum."""
        recorder = EstimateRecorder()
        simulator = Simulator(
            MaxGrvCounting(),
            400,
            seed=13,
            resize_schedule=[(30, 20)],
            recorders=[recorder],
        )
        simulator.run(120)
        before = [r.median for r in recorder.rows if r.parallel_time < 30][-1]
        after = recorder.rows[-1].median
        assert after >= before  # the estimate never decreases


class TestAveragedMaximaCounting:
    def test_initial_state_has_requested_slots(self, rng):
        protocol = AveragedMaximaCounting(slots=7)
        state = protocol.initial_state(rng)
        assert len(state.maxima) == 7

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            AveragedMaximaCounting(slots=0)

    def test_interaction_merges_slotwise(self, make_ctx):
        protocol = AveragedMaximaCounting(slots=3)
        u = AveragedMaximaState([1, 5, 2])
        v = AveragedMaximaState([4, 1, 3])
        u, v = protocol.interact(u, v, make_ctx())
        assert u.maxima == [4, 5, 3]
        assert v.maxima == [4, 5, 3]

    def test_output_is_average(self):
        protocol = AveragedMaximaCounting(slots=4)
        assert protocol.output(AveragedMaximaState([2, 4, 6, 8])) == 5.0
        assert protocol.output(AveragedMaximaState([])) == 0.0

    def test_memory_bits_scale_with_slots(self):
        protocol = AveragedMaximaCounting(slots=4)
        small = protocol.memory_bits(AveragedMaximaState([1, 1, 1, 1]))
        large = protocol.memory_bits(AveragedMaximaState([255, 255, 255, 255]))
        assert small == 4
        assert large == 32

    def test_estimates_log_n_with_small_additive_error(self):
        n = 200
        protocol = AveragedMaximaCounting(slots=24)
        simulator = Simulator(protocol, n, seed=14)
        simulator.run(80)
        estimates = simulator.outputs()
        log_n = math.log2(n)
        # The averaged-maxima estimator promises log n +- 5.7; after the
        # per-slot maxima have spread, every agent reports the same average.
        assert max(estimates) - min(estimates) < 1e-9
        assert abs(estimates[0] - log_n) <= 5.7

    def test_state_copy_independent(self):
        state = AveragedMaximaState([1, 2])
        clone = state.copy()
        clone.maxima[0] = 99
        assert state.maxima == [1, 2]
