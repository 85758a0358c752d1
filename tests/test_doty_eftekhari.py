"""Tests for the Doty–Eftekhari dynamic counting baseline."""

from __future__ import annotations

import math

import pytest

from repro.engine.recorder import EstimateRecorder
from repro.engine.simulator import Simulator
from repro.protocols.doty_eftekhari import DotyEftekhariCounting, DotyEftekhariState


class TestStateHandling:
    def test_initial_state_tracks_own_grv(self, rng):
        protocol = DotyEftekhariCounting()
        state = protocol.initial_state(rng)
        assert state.own_grv >= 1
        assert len(state.counters) >= state.own_grv

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DotyEftekhariCounting(threshold_factor=0)
        with pytest.raises(ValueError):
            DotyEftekhariCounting(resample_factor=0)

    def test_state_copy_independent(self):
        state = DotyEftekhariState(own_grv=2, counters=[0, 1])
        clone = state.copy()
        clone.counters[0] = 99
        assert state.counters == [0, 1]

    def test_counters_grow_to_cover_both_agents(self, make_ctx):
        protocol = DotyEftekhariCounting()
        u = DotyEftekhariState(own_grv=2, counters=[0, 0])
        v = DotyEftekhariState(own_grv=5, counters=[0, 0, 0, 0, 0])
        u, v = protocol.interact(u, v, make_ctx())
        assert len(u.counters) == len(v.counters) == 5

    def test_source_counter_pinned_at_zero(self, make_ctx):
        protocol = DotyEftekhariCounting()
        u = DotyEftekhariState(own_grv=3, counters=[5, 5, 5])
        v = DotyEftekhariState(own_grv=1, counters=[5, 5, 5])
        u, v = protocol.interact(u, v, make_ctx())
        assert u.counters[2] == 0  # u is the source for value 3
        assert v.counters[0] == 0  # v is the source for value 1
        assert u.counters[1] == 6  # joint min + 1 for a value neither owns

    def test_memory_bits_grow_with_counter_list(self):
        protocol = DotyEftekhariCounting()
        small = protocol.memory_bits(DotyEftekhariState(own_grv=1, counters=[0]))
        large = protocol.memory_bits(
            DotyEftekhariState(own_grv=1, counters=[15] * 20)
        )
        assert large > small

    def test_output_reflects_largest_detected_value(self):
        protocol = DotyEftekhariCounting(threshold_factor=2)
        state = DotyEftekhariState(own_grv=1, counters=[0, 0, 0, 0, 100])
        # Value 5's counter (100) is far above threshold, value 4 is present.
        assert protocol.output(state) == 4.0


class TestDynamics:
    def test_estimates_log_n_after_convergence(self):
        n = 200
        protocol = DotyEftekhariCounting()
        recorder = EstimateRecorder()
        simulator = Simulator(protocol, n, seed=21, recorders=[recorder])
        simulator.run(150)
        final = recorder.rows[-1]
        log_n = math.log2(n)
        assert 0.5 * log_n <= final.median <= 2.5 * log_n

    def test_adapts_to_population_drop(self):
        """Unlike the static baseline, detection lets the estimate shrink."""
        n, keep = 400, 30
        protocol = DotyEftekhariCounting()
        recorder = EstimateRecorder()
        simulator = Simulator(
            protocol,
            n,
            seed=22,
            resize_schedule=[(60, keep)],
            recorders=[recorder],
        )
        simulator.run(400)
        before = [r.median for r in recorder.rows if r.parallel_time < 60][-1]
        after = recorder.rows[-1].median
        expected_drop = math.log2(n / keep)
        assert before - after >= 0.5 * expected_drop

    def test_resampling_events_emitted_over_time(self):
        from repro.engine.recorder import EventRecorder

        protocol = DotyEftekhariCounting(resample_factor=4)
        events = EventRecorder(kinds={"resample"})
        simulator = Simulator(protocol, 100, seed=23, recorders=[events])
        simulator.run(100)
        assert len(events.events) > 0
