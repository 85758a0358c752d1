"""Cross-engine equivalence: the exact engine against the batched one.

The sequential engine is the exact reference.  The batched engine (a
one-row ensemble) refreshes responder states only between sub-batches, so
the two agree *statistically*: only the statistics the figures report are
compared (converged estimate level, clock round cadence, epidemic spread
time, consensus outcomes).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.population import Population
from repro.engine.recorder import EstimateRecorder, EventRecorder
from repro.engine.registry import make_engine
from repro.engine.simulator import Simulator
from repro.protocols.epidemic import InfectionEpidemic
from repro.protocols.junta import JuntaElection
from repro.protocols.majority import ApproximateMajority
from repro.protocols.vectorized import (
    VectorizedApproximateMajority,
    VectorizedInfectionEpidemic,
    VectorizedJuntaElection,
)


def _sequential_steady_low(n: int, parallel_time: int, seed: int) -> float:
    """Low point of the median-estimate oscillation over the second half of a run.

    The low point corresponds to a freshly sampled round maximum, which
    concentrates tightly around ``log2(k * n)`` and is therefore a much more
    stable statistic than any single snapshot.
    """
    recorder = EstimateRecorder()
    simulator = Simulator(
        DynamicSizeCounting(), n, seed=seed, recorders=[recorder], snapshot_stats=False
    )
    simulator.run(parallel_time)
    tail = [row.median for row in recorder.rows if row.parallel_time > parallel_time // 2]
    return min(tail)


def _batched_steady_low(n: int, parallel_time: int, seed: int) -> float:
    simulator = make_engine("batched", VectorizedDynamicCounting(), n, seed=seed)
    result = simulator.run(parallel_time)
    tail = [s.median for s in result.snapshots if s.parallel_time > parallel_time // 2]
    return min(tail)


class TestSteadyStateAgreement:
    def test_converged_estimates_agree_within_tolerance(self):
        # The horizon must cover several clock rounds past convergence so
        # that the initial (inflated) maximum has been forgotten in both
        # engines before the tail window starts.
        n, horizon = 600, 1000
        sequential = _sequential_steady_low(n, horizon, seed=101)
        batched = _batched_steady_low(n, horizon, seed=202)
        # Both should sit near log2(k * n); allow slack for run-to-run
        # variation in the maximum of the GRVs.
        assert abs(sequential - batched) <= 3.0
        reference = math.log2(16 * n)
        assert abs(sequential - reference) <= 3.5
        assert abs(batched - reference) <= 3.5


class TestRoundLengthAgreement:
    def test_reset_rates_are_comparable(self):
        """Resets per agent per parallel time unit agree within a factor of two.

        The measurement window spans several clock rounds; shorter windows
        would quantise to "how many reset bursts happened to fall inside"
        and make the comparison meaningless.
        """
        n, horizon, warmup = 500, 1000, 150

        events = EventRecorder(kinds={"reset"})
        simulator = Simulator(
            DynamicSizeCounting(), n, seed=111, recorders=[events], snapshot_stats=False
        )
        simulator.run(horizon)
        sequential_rate = len(
            [e for e in events.events if e.interaction >= warmup * n]
        ) / (n * (horizon - warmup))

        batched = make_engine("batched", VectorizedDynamicCounting(), n, seed=222)
        batched.run(warmup)
        start = int(batched.arrays["resets"].sum())
        batched.run(horizon - warmup)
        end = int(batched.arrays["resets"].sum())
        batched_rate = (end - start) / (n * (horizon - warmup))

        assert sequential_rate > 0
        assert batched_rate > 0
        # The batched engine's reset bursts are slightly sharper than the
        # sequential engine's, so allow a factor-2 band on the rate ratio;
        # what matters for the figures is that rounds happen at a comparable
        # cadence, not that the engines agree interaction for interaction.
        ratio = batched_rate / sequential_rate
        assert 0.5 <= ratio <= 2.0


def _sequential_spread_time(n: int, seed: int) -> int:
    simulator = Simulator(InfectionEpidemic(), Population([1] + [0] * (n - 1)), seed=seed)
    result = simulator.run(
        10 * int(math.log2(n)) + 50,
        stop_when=lambda sim: sum(sim.population.states()) == n,
    )
    assert result.stopped_early, "epidemic did not finish within the horizon"
    return result.parallel_time


def _batched_spread_time(n: int, seed: int) -> int:
    vectorized = VectorizedInfectionEpidemic()
    simulator = make_engine(
        "batched", vectorized, n, seed=seed, initial_arrays=vectorized.seeded_arrays(n)
    )
    result = simulator.run(
        10 * int(math.log2(n)) + 50,
        stop_when=lambda sim, snapshot: snapshot.minimum >= 1.0,
    )
    assert result.stopped_early, "epidemic did not finish within the horizon"
    return result.parallel_time


class TestBatchedStatisticalEquivalence:
    """The batched engine matches the figures' statistics at small n."""

    def test_epidemic_spread_times_comparable(self):
        n = 400
        sequential = np.mean([_sequential_spread_time(n, seed) for seed in (1, 2, 3)])
        batched = np.mean([_batched_spread_time(n, seed) for seed in (4, 5, 6)])
        # Both engines need Theta(log n) parallel time; the batched engine's
        # synchronous rounds spread marginally faster, hence the loose band.
        assert sequential > 0 and batched > 0
        ratio = batched / sequential
        assert 1 / 3 <= ratio <= 3

    def test_junta_statistics_comparable(self):
        n, horizon = 400, 30
        sequential = Simulator(JuntaElection(), n, seed=21)
        sequential.run(horizon)
        seq_levels = np.array([s.level for s in sequential.population.states()])

        batched = make_engine("batched", VectorizedJuntaElection(), n, seed=22)
        batched.run(horizon)
        batch_levels = batched.arrays["level"]

        # The maximum coin level concentrates around log2(n) +- O(1).
        assert abs(int(seq_levels.max()) - int(batch_levels.max())) <= 3
        # Junta sizes are polylogarithmic on both engines: small but nonzero.
        seq_junta = sum(1 for out in sequential.outputs() if out)
        batch_junta = int(batched.outputs().sum())
        assert 0 < seq_junta < n / 4
        assert 0 < batch_junta < n / 4

    def test_majority_consensus_agrees(self):
        n, a, b = 300, 195, 105
        sequential = Simulator(
            ApproximateMajority(), Population(["A"] * a + ["B"] * b), seed=31
        )
        sequential.run(60)
        seq_a = sum(1 for s in sequential.population.states() if s == "A")

        vectorized = VectorizedApproximateMajority()
        batched = make_engine(
            "batched", vectorized, n, seed=32, initial_arrays=vectorized.arrays_from_counts(a, b)
        )
        batched.run(60)
        batch_a = int((batched.arrays["opinion"] == 1).sum())

        # With a 65/35 initial split both engines reach (near-)consensus on A.
        assert seq_a >= 0.9 * n
        assert batch_a >= 0.9 * n


class TestSequentialVsBatchedDynamicCounting:
    def test_steady_state_agreement(self):
        """The exact engine sits at the same plateau as the batched one at n = 300.

        The horizon covers several clock rounds past convergence; the
        tolerance matches the steady-state test at n = 600 above.
        """
        n, horizon = 300, 1000
        sequential_low = _sequential_steady_low(n, horizon, seed=77)
        batched_low = _batched_steady_low(n, horizon, seed=88)
        assert abs(sequential_low - batched_low) <= 3.0
        reference = math.log2(16 * n)
        assert abs(sequential_low - reference) <= 3.5
        assert abs(batched_low - reference) <= 3.5


@pytest.mark.parametrize("engine", ["batched"])
def test_resize_schedule_supported_by_both_array_engines(engine):
    simulator = make_engine(
        engine, VectorizedDynamicCounting(), 200, seed=13, resize_schedule=[(5, 50)]
    )
    result = simulator.run(10)
    assert result.final_size == 50
    sizes = [s.population_size for s in result.snapshots]
    assert sizes[0] == 200 and sizes[-1] == 50
