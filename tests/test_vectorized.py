"""Tests for the vectorised Algorithm 2 implementation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.params import empirical_parameters, theory_parameters
from repro.core.state import CountingState
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.protocol import InteractionContext
from repro.engine.registry import make_engine
from repro.engine.rng import RandomSource


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

    def test_batch_is_the_ensemble_kernel_on_one_row(self, protocol, stacked_kernel):
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
            stacked_kernel(
                protocol, stacked, initiators[np.newaxis], responders[np.newaxis], ensemble_rng
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
    def test_each_resetting_slot_ticks_once(self, case, stacked_kernel):
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

        stacked_kernel(
            VectorizedDynamicCounting(), arrays, initiators, responders, RandomSource.from_seed(1)
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


class _LaneGrvs:
    """The kernel's random source: GRVs pre-drawn per lane of the batch.

    A lane draws at most one GRV per batch: a resetting initiator restarts
    its interaction count at 0, below any backup threshold, so one table
    serves the reset and the backup draws.
    """

    def __init__(self, grvs: np.ndarray) -> None:
        self.grvs = grvs

    def geometric_max_lanes(self, k: int, lanes: np.ndarray, width: int) -> np.ndarray:
        return self.grvs.ravel()[lanes]


class _OneGrv:
    """The scalar rule's random source for one lane: that lane's GRV."""

    def __init__(self, value: float) -> None:
        self.value = value
        self.draws = 0

    def geometric_max(self, count: int) -> int:
        self.draws += 1
        return int(self.value)


def reference_batch(params, arrays, initiators, responders, grvs, branches):
    """The batch contract of ``VectorizedProtocol.interact_ensemble``, lane by lane.

    Every plane is snapshot at the start of the batch; each lane applies
    :meth:`DynamicSizeCounting.interact` to its initiator and responder as
    they were in that snapshot, drawing the lane's pre-drawn GRV; initiators
    are written back in lane order, so the last writer of a slot wins; and
    every distinct slot whose initiator reset in some lane gains one tick.
    ``branches`` counts the rule's rare branches as they fire.
    """
    rule = DynamicSizeCounting(params)
    before = {key: plane.copy() for key, plane in arrays.items()}
    rows, width = initiators.shape
    for row in range(rows):
        reset_slots = set()
        for lane in range(width):
            u_slot, v_slot = int(initiators[row, lane]), int(responders[row, lane])
            u, v = (
                CountingState(
                    max_value=float(before["max"][row, slot]),
                    last_max=float(before["last_max"][row, slot]),
                    time=float(before["time"][row, slot]),
                    interactions=int(before["interactions"][row, slot]),
                )
                for slot in (u_slot, v_slot)
            )
            old_max = u.max_value
            grv = _OneGrv(grvs[row, lane])
            events = []
            ctx = InteractionContext(grv, sink=events.append)
            ctx.reset(0, u_slot, v_slot)
            u, _ = rule.interact(u, v, ctx)
            kinds = [event.kind for event in events]
            if "reset" in kinds:
                reset_slots.add(u_slot)
                branches["reset"] += 1
            else:
                branches["backup"] += grv.draws
                branches["boost"] += kinds.count("backup")
                # Only a reset, a boost or an adoption changes max.
                branches["adopt"] += "backup" not in kinds and u.max_value != old_max
            arrays["max"][row, u_slot] = u.max_value
            arrays["last_max"][row, u_slot] = u.last_max
            arrays["time"][row, u_slot] = u.time
            arrays["interactions"][row, u_slot] = u.interactions
        for slot in reset_slots:
            arrays["resets"][row, slot] += 1


def mixed_planes(params, rows, n, float_dtype, int_dtype, gen):
    """Random ``(rows, n)`` planes, each agent in a phase drawn uniformly.

    ``max`` and ``lastMax`` take a few levels — a fresh agent's 1 or a small
    overestimated GRV — so equal maxima are common; ``time`` lies in the
    drawn phase (a sixth of the reset phase is wrap-around, ``time <= 0``);
    and ``interactions`` sit around the backup threshold.
    """
    shape = (rows, n)

    def levels():
        grv = params.overestimation * gen.integers(1, 7, shape)
        return np.where(gen.random(shape) < 0.3, 1.0, grv)

    max_value, last_max = levels(), levels()
    scale = np.maximum(max_value, last_max)
    phase = gen.integers(0, 3, shape)  # exchange, hold, reset
    low = np.array([params.tau2, params.tau3, -0.2 * params.tau3])[phase]
    high = np.array([params.tau1, params.tau2, params.tau3])[phase]
    time = np.floor(gen.uniform(low, high) * scale)
    interactions = np.floor(gen.uniform(0.8, 1.1, shape) * params.tau_prime * scale)
    return {
        "max": max_value.astype(float_dtype),
        "last_max": last_max.astype(float_dtype),
        "time": time.astype(float_dtype),
        "interactions": interactions.astype(int_dtype),
        "resets": gen.integers(0, 5, shape).astype(np.int64),
    }


class TestLaneOracle:
    """``interact_ensemble`` against the scalar rule, lane for lane and bit for bit.

    Random mixed-phase planes, duplicate initiators in every batch and
    several batches in a row, narrow batches (the sparse reset tally) and
    full-width ones (the dense tally).  Float32 planes carry the paper's
    empirical constants, as the ensemble engine narrows them; the theory
    constants keep float64 planes.
    """

    CONSTANTS = {
        "empirical-float32": (empirical_parameters(), np.float32, np.int32),
        "theory-float64": (theory_parameters(k=2), np.float64, np.int64),
    }

    #: Batch widths: 4 lanes take the sparse reset tally (``np.unique``),
    #: ``n`` lanes the dense one (a flag plane).
    WIDTHS = {"narrow": 4, "full": 40}

    @staticmethod
    def drive(kernel, dtypes, rows, lanes, seeds, branches, stacked_kernel):
        """Four batches per seed through ``kernel``, checked after each one.

        Returns the reset tallies the batches took (``"sparse"``/``"dense"``).
        """
        params = kernel.params
        float_dtype, int_dtype = dtypes
        n = 40
        tallies = set()
        for seed in seeds:
            gen = np.random.default_rng([seed, rows, lanes])
            arrays = mixed_planes(params, rows, n, float_dtype, int_dtype, gen)
            expected = {key: plane.copy() for key, plane in arrays.items()}
            for _ in range(4):
                # Few initiators, so every batch repeats some of them.
                initiators = gen.integers(0, max(3, lanes // 2), (rows, lanes))
                responders = (initiators + gen.integers(1, n, (rows, lanes))) % n
                grvs = gen.integers(1, 13, (rows, lanes)).astype(np.float64)
                resets_before = branches["reset"]
                stacked_kernel(kernel, arrays, initiators, responders, _LaneGrvs(grvs))
                reference_batch(params, expected, initiators, responders, grvs, branches)
                for key in expected:
                    assert arrays[key].dtype == expected[key].dtype, key
                    assert np.array_equal(arrays[key], expected[key]), (seed, key)
                resets = branches["reset"] - resets_before
                if resets:
                    tallies.add("sparse" if resets * 8 < rows * n else "dense")
        return tallies

    @pytest.mark.parametrize("width", sorted(WIDTHS))
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("constants", sorted(CONSTANTS))
    def test_kernel_matches_the_scalar_rule(self, constants, rows, width, stacked_kernel):
        params, float_dtype, int_dtype = self.CONSTANTS[constants]
        kernel = VectorizedDynamicCounting(params)
        assert (kernel.ensemble_state_dtypes is not None) == (float_dtype is np.float32)
        branches = dict.fromkeys(("reset", "backup", "boost", "adopt"), 0)
        tallies = self.drive(
            kernel,
            (float_dtype, int_dtype),
            rows,
            self.WIDTHS[width],
            range(12),
            branches,
            stacked_kernel,
        )
        assert all(count > 0 for count in branches.values()), branches
        assert ("dense" in tallies) == (width == "full")

    def test_one_kernel_stays_exact_across_plane_dtypes(self, stacked_kernel):
        """float32, then float64, then float32 planes through one kernel instance.

        The kernel builds its constants once per pair of plane dtypes.  With
        tau2 = 3 the backup ratio tau' / tau2 = 20 / 3 rounds lower in
        float32 than in float64: on float64 planes a float32 copy of it
        would put the backup threshold just below tau' * scale and fire the
        backup of every lane whose count sits exactly there, which the
        scalar rule does not.  Both dtypes' own constants give exactly
        tau' * scale at every scale these planes hold.
        """
        params = dataclasses.replace(empirical_parameters(), tau2=3.0)
        kernel = VectorizedDynamicCounting(params)
        assert kernel.ensemble_state_dtypes is not None
        branches = dict.fromkeys(("reset", "backup", "boost", "adopt"), 0)
        for dtypes in ((np.float32, np.int32), (np.float64, np.int64), (np.float32, np.int32)):
            self.drive(kernel, dtypes, 3, 40, range(6), branches, stacked_kernel)
        assert all(count > 0 for count in branches.values()), branches
