"""Integration tests: the loose-stabilization behaviour end to end (exact engine).

These tests exercise the three behaviours the paper's evaluation is built
around, at small scale on the exact sequential engine:

* convergence from the empty initial configuration (Fig. 2 shape),
* adaptation after the adversary decimates the population (Fig. 4 shape),
* recovery from a large initial over-estimate (Fig. 5 shape),
* growth of the population (the "agents are added" half of the dynamic model).
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.convergence import loose_stabilization_report
from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.params import empirical_parameters
from repro.engine.recorder import EstimateRecorder
from repro.engine.rng import RandomSource
from repro.engine.simulator import Simulator


def run_with_recorder(protocol, population, seed, parallel_time, resize_schedule=()):
    recorder = EstimateRecorder()
    simulator = Simulator(
        protocol, population, seed=seed, resize_schedule=resize_schedule, recorders=[recorder]
    )
    simulator.run(parallel_time)
    return recorder


class TestConvergenceFromEmptyConfiguration:
    def test_converges_and_holds(self):
        n = 200
        protocol = DynamicSizeCounting()
        recorder = run_with_recorder(protocol, n, seed=301, parallel_time=400)
        report = loose_stabilization_report(
            recorder.rows, lower_factor=0.5, upper_factor=8.0, persistence=5, grace=2
        )
        assert report.convergence_time is not None
        # Convergence is fast: well under 10 * (log n-hat + log n) here.
        assert report.convergence_time <= 10 * math.log2(n)
        assert report.held_until_end
        assert report.holding_time >= 300

    def test_all_agents_agree_after_convergence(self):
        protocol = DynamicSizeCounting()
        recorder = run_with_recorder(protocol, 150, seed=302, parallel_time=200)
        final = recorder.rows[-1]
        assert final.maximum - final.minimum <= 2


class TestAdaptationToDecimation:
    def test_estimate_drops_after_removal(self):
        n, keep = 1000, 50
        protocol = DynamicSizeCounting()
        recorder = run_with_recorder(
            protocol,
            n,
            seed=303,
            parallel_time=800,
            resize_schedule=[(100, keep)],
        )
        before = [r.median for r in recorder.rows if r.parallel_time < 100][-1]
        tail = sorted(r.median for r in recorder.rows if r.parallel_time > 650)
        after = tail[len(tail) // 2]
        expected_drop = math.log2(n / keep)
        assert before - after >= 0.5 * expected_drop
        # The post-drop estimate is a constant-factor approximation of the
        # new population's log2.
        assert after <= 3.5 * math.log2(keep)


class TestRecoveryFromOverestimate:
    def test_initial_estimate_is_forgotten(self):
        n, initial_estimate = 300, 40.0
        protocol = DynamicSizeCounting(empirical_parameters())
        population = protocol.make_estimate_population(
            n, initial_estimate, RandomSource.from_seed(304)
        )
        recorder = run_with_recorder(protocol, population, seed=305, parallel_time=1500)
        assert recorder.rows[0].median == initial_estimate
        tail = sorted(r.median for r in recorder.rows if r.parallel_time > 1200)
        steady = tail[len(tail) // 2]
        assert steady < initial_estimate
        assert steady <= 3 * math.log2(n)


class TestGrowth:
    def test_estimate_grows_when_agents_are_added(self):
        start, added = 50, 1500
        protocol = DynamicSizeCounting()
        recorder = run_with_recorder(
            protocol,
            start,
            seed=306,
            parallel_time=600,
            resize_schedule=[(100, start + added)],
        )
        before = [r.median for r in recorder.rows if r.parallel_time < 100][-1]
        tail = sorted(r.median for r in recorder.rows if r.parallel_time > 450)
        after = tail[len(tail) // 2]
        # log2(1550/50) is about 5; require at least a couple of units of growth.
        assert after - before >= 2.0


class TestBudgetSanity:
    @pytest.mark.parametrize("n", [100, 400])
    def test_memory_stays_logarithmic(self, n):
        """No variable blows up over a long run (space claim of Theorem 2.1)."""
        from repro.engine.recorder import MemoryRecorder

        protocol = DynamicSizeCounting()
        recorder = MemoryRecorder()
        simulator = Simulator(protocol, n, seed=307, recorders=[recorder])
        simulator.run(300)
        peak = recorder.peak_bits()
        # Four variables, each O(log(tau_1 * k * log n)) bits: far below 64.
        assert peak <= 64
