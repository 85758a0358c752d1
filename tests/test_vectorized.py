"""Tests for the vectorised Algorithm 2 implementation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.params import empirical_parameters, theory_parameters
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.registry import make_engine
from repro.engine.rng import RandomSource
from repro.kernels.jit import JitVectorizedDynamicCounting, python_kernels, use_kernel_table


@pytest.fixture
def protocol() -> VectorizedDynamicCounting:
    return VectorizedDynamicCounting(empirical_parameters())


class TestArrays:
    def test_initial_arrays_shape_and_values(self, protocol, rng):
        arrays = protocol.initial_arrays(10, rng)
        assert set(arrays) == {"max", "last_max", "time", "interactions", "resets"}
        assert all(len(arr) == 10 for arr in arrays.values())
        assert np.all(arrays["max"] == 1)
        assert np.all(arrays["time"] == protocol.params.tau1)
        assert np.all(arrays["resets"] == 0)

    def test_initial_arrays_with_estimate(self, protocol):
        arrays = protocol.initial_arrays_with_estimate(5, 60.0)
        assert np.all(arrays["max"] == 60)
        assert np.all(arrays["time"] == protocol.params.tau1 * 60)

    def test_initial_arrays_with_estimate_applies_overestimation(self):
        protocol = VectorizedDynamicCounting(theory_parameters(k=2))
        arrays = protocol.initial_arrays_with_estimate(5, 10.0)
        assert np.all(arrays["max"] == 10 * protocol.params.overestimation)

    def test_initial_arrays_with_estimate_rejects_nonpositive(self, protocol):
        with pytest.raises(ValueError):
            protocol.initial_arrays_with_estimate(5, 0.0)

    def test_output_array_is_effective_max(self, protocol, rng):
        arrays = protocol.initial_arrays(4, rng)
        arrays["max"][:] = [3, 9, 1, 4]
        arrays["last_max"][:] = [7, 2, 1, 4]
        assert protocol.output_array(arrays).tolist() == [7, 9, 1, 4]

    def test_tick_count_array(self, protocol, rng):
        arrays = protocol.initial_arrays(3, rng)
        arrays["resets"][:] = [0, 2, 5]
        assert protocol.tick_count_array(arrays).tolist() == [0, 2, 5]

    def test_phase_codes(self, protocol, rng):
        arrays = protocol.initial_arrays(3, rng)
        arrays["max"][:] = 10
        arrays["last_max"][:] = 10
        arrays["time"][:] = [50, 30, 5]  # exchange, hold, reset
        assert protocol.phase_codes(arrays).tolist() == [0, 1, 2]

    def test_describe(self, protocol):
        assert protocol.describe()["params"]["tau1"] == 6.0


class TestBatchTransition:
    def test_wraparound_reset_applied(self, protocol, rng):
        arrays = protocol.initial_arrays(4, rng)
        arrays["max"][:] = 10
        arrays["last_max"][:] = 10
        arrays["time"][:] = [0, 50, 50, 50]
        initiators = np.array([0])
        responders = np.array([1])
        protocol.interact_batch(arrays, initiators, responders, rng)
        assert arrays["resets"][0] == 1
        assert arrays["last_max"][0] == 10  # trailing estimate keeps the old max
        assert arrays["time"][0] >= protocol.params.tau1 * 10 - 1

    def test_exchange_adoption_applied(self, protocol, rng):
        arrays = protocol.initial_arrays(2, rng)
        arrays["max"][:] = [8, 12]
        arrays["last_max"][:] = [8, 12]
        arrays["time"][:] = [40, 60]
        protocol.interact_batch(arrays, np.array([0]), np.array([1]), rng)
        assert arrays["max"][0] == 12
        assert arrays["resets"][0] == 0

    def test_chvp_time_update(self, protocol, rng):
        arrays = protocol.initial_arrays(2, rng)
        arrays["max"][:] = 10
        arrays["last_max"][:] = 10
        arrays["time"][:] = [30, 45]
        protocol.interact_batch(arrays, np.array([0]), np.array([1]), rng)
        assert arrays["time"][0] == 44
        assert arrays["interactions"][0] == 1

    def test_responders_never_modified(self, protocol, rng):
        arrays = protocol.initial_arrays(2, rng)
        arrays["max"][:] = [8, 12]
        arrays["last_max"][:] = [8, 12]
        arrays["time"][:] = [40, 60]
        protocol.interact_batch(arrays, np.array([0]), np.array([1]), rng)
        assert arrays["max"][1] == 12
        assert arrays["time"][1] == 60

    def test_batch_is_the_ensemble_kernel_on_one_row(self, protocol):
        """interact_batch holds no rule of its own and writes through views."""
        n = 50
        flat = protocol.initial_arrays(n, RandomSource.from_seed(0))
        flat["time"][:] = np.arange(n) % 7  # mixed phases, so agents reset
        stacked = {key: arr[np.newaxis].copy() for key, arr in flat.items()}
        pairs = np.random.default_rng(4)
        batch_rng, ensemble_rng = RandomSource.from_seed(9), RandomSource.from_seed(9)
        for _ in range(20):
            initiators = pairs.integers(0, n, 12)
            responders = (initiators + pairs.integers(1, n, 12)) % n
            protocol.interact_batch(flat, initiators, responders, batch_rng)
            protocol.interact_ensemble(
                stacked, initiators[np.newaxis], responders[np.newaxis], ensemble_rng
            )
        assert flat["resets"].sum() > 0
        for key in flat:
            assert np.array_equal(flat[key], stacked[key][0]), key

    def test_empty_batch_is_noop(self, protocol, rng):
        arrays = protocol.initial_arrays(3, rng)
        snapshot = {key: arr.copy() for key, arr in arrays.items()}
        protocol.interact_batch(arrays, np.array([], dtype=int), np.array([], dtype=int), rng)
        for key in arrays:
            assert np.array_equal(arrays[key], snapshot[key])


class TestResetTally:
    """The ``resets`` plane gains one tick per distinct (row, slot) that resets.

    A hand-built two-row stack in the exchange phase (``time = tau1 *
    max``), where only the agents with ``time <= 0`` reset.  Initiators
    repeat within the sub-batch, resetting ones included, and slot 3
    resets in both rows.  The sparse case takes the ``np.unique`` branch of
    the tally, the dense one (every lane resets) the flag-plane branch.
    """

    CASES = {
        "sparse": (
            64,
            [[3, 5], [3]],
            [[3, 3, 5, 7, 3, 9, 11, 13], [3, 20, 3, 21, 22, 23, 24, 25]],
        ),
        "dense": (
            8,
            [list(range(8)), list(range(8))],
            [[0, 0, 1, 2, 2, 2, 5, 7], [1, 1, 1, 3, 4, 4, 6, 6]],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kernel", ["numpy", "jit-interpreted"])
    def test_each_resetting_slot_ticks_once(self, kernel, case):
        n, zero_time, initiators = self.CASES[case]
        initiators = np.array(initiators)
        responders = (initiators + 1) % n
        arrays = {
            "max": np.full((2, n), 10, dtype=np.float32),
            "last_max": np.full((2, n), 10, dtype=np.float32),
            "time": np.full((2, n), 60, dtype=np.float32),
            "interactions": np.zeros((2, n), dtype=np.int32),
            "resets": np.tile(np.arange(n, dtype=np.int64), (2, 1)),
        }
        for row, slots in enumerate(zero_time):
            arrays["time"][row, slots] = 0
        resetting = [[u for u in row if u in zero] for row, zero in zip(initiators, zero_time)]
        lanes = sum(len(row) for row in resetting)
        assert (lanes * 8 < 2 * n) == (case == "sparse")
        expected = arrays["resets"].copy()
        for row, slots in enumerate(resetting):
            expected[row, sorted(set(slots))] += 1

        if kernel == "numpy":
            VectorizedDynamicCounting().interact_ensemble(
                arrays, initiators, responders, RandomSource.from_seed(1)
            )
        else:
            with use_kernel_table(python_kernels()):
                JitVectorizedDynamicCounting().interact_ensemble(
                    arrays, initiators, responders, RandomSource.from_seed(1)
                )

        assert np.array_equal(arrays["resets"], expected)


class TestBatchedConvergence:
    def test_converges_to_constant_factor_estimate(self):
        n = 3000
        protocol = VectorizedDynamicCounting()
        simulator = make_engine("batched", protocol, n, seed=91)
        result = simulator.run(200)
        final = result.snapshots[-1]
        log_n = math.log2(n)
        assert 0.5 * log_n <= final.minimum
        assert final.maximum <= 3 * log_n

    def test_adapts_to_decimation(self):
        protocol = VectorizedDynamicCounting()
        simulator = make_engine(
            "batched", protocol, 5000, seed=92, resize_schedule=[(80, 100)]
        )
        result = simulator.run(1200)
        before = [s.median for s in result.snapshots if s.parallel_time < 80][-1]
        # The estimate oscillates round to round (occasionally spiking when a
        # large GRV is sampled), so judge adaptation on the median of the
        # medians over the last 40 % of the run rather than a single snapshot.
        tail = sorted(s.median for s in result.snapshots if s.parallel_time > 720)
        after = tail[len(tail) // 2]
        expected_drop = math.log2(5000 / 100)
        assert before - after >= 0.5 * expected_drop

    def test_recovers_from_initial_overestimate(self):
        protocol = VectorizedDynamicCounting()
        n = 1000
        initial_estimate = 40.0
        simulator = make_engine(
            "batched",
            protocol,
            n,
            seed=93,
            initial_arrays=protocol.initial_arrays_with_estimate(n, initial_estimate),
        )
        result = simulator.run(2500)
        tail = sorted(s.median for s in result.snapshots if s.parallel_time > 2000)
        steady_median = tail[len(tail) // 2]
        assert steady_median < initial_estimate
        assert steady_median <= 3 * math.log2(n)
