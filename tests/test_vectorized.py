"""Tests for the vectorised Algorithm 2 implementation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.params import empirical_parameters, theory_parameters
from repro.core.state import CountingState
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.batch_engine import VectorizedProtocol
from repro.engine.ensemble_engine import flat_pair_indices, flat_planes
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


class _CountingGrvs:
    """A random source that counts the GRVs a kernel draws and returns 3s."""

    def __init__(self) -> None:
        self.draws = 0

    def geometric_max_lanes(self, k: int, lanes: np.ndarray, width: int) -> np.ndarray:
        self.draws += lanes.size
        return np.full(lanes.size, 3.0)


def run_step(protocol, planes, initiators, responders, chunk, *, staged=False):
    """One block-step on copies of ``(rows, n)`` planes, as the engine makes it.

    ``staged`` runs :class:`VectorizedProtocol`'s default, the loop of
    ``interact_ensemble`` over the ``chunk``-wide sub-batches, instead of
    the protocol's own ``interact_step``.  Returns the planes, whether the
    quiet rule ran, and how many GRVs were drawn.
    """
    arrays = {key: plane.copy() for key, plane in planes.items()}
    n = arrays["max"].shape[1]
    flat_u, flat_v = flat_pair_indices(np.asarray(initiators), np.asarray(responders), n)
    step = VectorizedProtocol.interact_step if staged else type(protocol).interact_step
    grvs = _CountingGrvs()
    quiet = step(protocol, flat_planes(arrays), flat_u, flat_v, chunk, grvs)
    return arrays, quiet, grvs.draws


#: The two plane layouts the ensemble engine builds: the empirical
#: constants narrowed to float32/int32, the theory constants in float64/int64.
QUIET_CONSTANTS = {
    "empirical-float32": (empirical_parameters(), np.float32, np.int32),
    "theory-float64": (theory_parameters(k=2), np.float64, np.int64),
}


def random_step(gen, rows, n):
    """A step's ``(rows, n)`` pairs of distinct agents and each agent's initiations."""
    initiators = gen.integers(0, n, (rows, n))
    responders = (initiators + gen.integers(1, n, (rows, n))) % n
    initiations = np.stack([np.bincount(row, minlength=n) for row in initiators])
    return initiators, responders, initiations


def boundary_planes(params, float_dtype, int_dtype, initiations, gen):
    """``(rows, n)`` planes at the edges of the quiet-step certificate.

    Per row: a constant ``max`` level ``M``; ``lastMax`` one value (``M``, or
    one level above or below it) in about half the rows, and otherwise
    ``M`` with some agents above and some below; ``time - k`` on either
    branch of clause (c); and counters ``interactions + k - 1`` around the
    backup threshold ``tau' / tau2 * (tau2 * M)``.  Most agents sit at a
    threshold or one unit inside it, some far inside; in about one row in
    eight, one agent sits one unit past a clause (for ``max``: one unit off
    ``M``).  Thresholds are computed in the planes' dtype, as the kernel
    computes them.
    """
    rows, n = initiations.shape
    real = np.dtype(float_dtype)
    tau2, tau3, ratio = (
        np.array(value, dtype=real)
        for value in (params.tau2, params.tau3, params.tau_prime / params.tau2)
    )
    over = params.overestimation

    def margins(far):
        """Units inside a threshold: 0 or 1, some up to ``far``; -1 is past it."""
        inside = gen.integers(0, 2, (rows, n)).astype(np.float64)
        spread = gen.random((rows, n)) < 0.3
        inside[spread] += gen.integers(0, int(far) + 1, int(spread.sum()))
        for row in np.flatnonzero(gen.random(rows) < 0.12):
            inside[row, gen.integers(n)] = -1
        return inside

    level = (over * gen.integers(1, 8, rows)).astype(real)
    max_value = np.repeat(level[:, None], n, axis=1)
    for row in np.flatnonzero(gen.random(rows) < 0.12):
        max_value[row, gen.integers(n)] += gen.choice((-1, 1))
    last_max = max_value.copy()
    varied = (gen.random(rows) < 0.5)[:, None]
    above = varied & (gen.random((rows, n)) < 0.3)
    last_max[above] += over * gen.integers(1, 3, int(above.sum()))
    below = varied & (gen.random((rows, n)) < 0.1) & (max_value > over)
    last_max[below] -= over
    last_max[~varied[:, 0]] += over * gen.integers(-1, 2, (int((~varied).sum()), 1))
    last_max = np.maximum(last_max, over)
    reach = np.maximum(level, last_max.max(axis=1))

    # Clause (c): the first branch's floor tau3 * L, or the second's
    # ceiling tau2 * M with time - k >= 0 below it.
    first = gen.random(rows) < 0.5
    floor = (tau3 * reach).astype(np.float64)
    ceiling = (tau2 * level).astype(np.float64)
    time = np.where(
        first[:, None],
        floor[:, None] + initiations + margins(params.tau1 * float(reach.max())),
        np.minimum(initiations + margins(float(ceiling.max())), ceiling[:, None] - 1),
    )
    for row in np.flatnonzero(~first):
        time[row, gen.integers(n)] = ceiling[row] - 1 + (gen.random() < 0.12)

    backup = np.floor((ratio * (tau2 * level)).astype(np.float64))
    interactions = backup[:, None] - initiations + 1 - margins(backup.max())
    return {
        "max": max_value.astype(real),
        "last_max": last_max.astype(real),
        "time": time.astype(real),
        "interactions": np.maximum(interactions, 0).astype(int_dtype),
        "resets": gen.integers(0, 5, (rows, n)).astype(np.int64),
    }


class TestQuietStep:
    """A step certified quiet runs lines 13-15 alone, bit for bit as the staged kernel.

    The certificate (``VectorizedDynamicCounting._quiet_certificate``) is
    sound when every step it accepts leaves the planes exactly as the
    staged loop of ``interact_ensemble`` does, without a draw; each clause
    is tight when the first state past it is one the staged kernel treats
    differently: a reset, a backup draw, an adoption or a blocked share.
    """

    @settings(max_examples=400, deadline=None)
    @given(
        constants=st.sampled_from(sorted(QUIET_CONSTANTS)),
        rows=st.integers(1, 4),
        n=st.integers(2, 80),
        chunk_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_certified_step_is_the_staged_step(self, constants, rows, n, chunk_share, seed):
        params, float_dtype, int_dtype = QUIET_CONSTANTS[constants]
        protocol = VectorizedDynamicCounting(params)
        gen = np.random.default_rng(seed)
        initiators, responders, initiations = random_step(gen, rows, n)
        planes = boundary_planes(params, float_dtype, int_dtype, initiations, gen)
        chunk = 1 + int(chunk_share * (n - 1))

        quiet_planes, quiet, quiet_draws = run_step(
            protocol, planes, initiators, responders, chunk
        )
        staged_planes, staged, staged_draws = run_step(
            protocol, planes, initiators, responders, chunk, staged=True
        )

        assert not staged
        if quiet:
            assert quiet_draws == staged_draws == 0
        for key, plane in staged_planes.items():
            assert quiet_planes[key].dtype == plane.dtype, key
            assert np.array_equal(quiet_planes[key], plane), key

    def test_the_boundary_property_meets_both_outcomes(self):
        """The generator above puts steps on both sides of the certificate.

        Certified steps come with one ``lastMax`` value per row, which the
        quiet rule leaves alone, and with rows where it varies.
        """
        protocol = VectorizedDynamicCounting()
        outcomes = []
        for seed in range(200):
            gen = np.random.default_rng(seed)
            n = 2 + seed % 79
            initiators, responders, initiations = random_step(gen, 1 + seed % 4, n)
            planes = boundary_planes(protocol.params, np.float32, np.int32, initiations, gen)
            last = planes["last_max"]
            constant = bool((last.min(axis=1) == last.max(axis=1)).all())
            quiet = run_step(protocol, planes, initiators, responders, n)[1]
            outcomes.append((quiet, constant))
        certified = [constant for quiet, constant in outcomes if quiet]
        assert 0.2 < len(certified) / len(outcomes) < 0.8
        assert 0.1 < np.mean(certified) < 0.9

    #: One row of three agents with ``max = 10`` (tau1 = 6, tau2 = 4,
    #: tau3 = 2, tau' = 20): the exchange phase starts at time 40, the
    #: reset phase ends at 20, and the backup threshold is 5 * 40 = 200.
    BASE = {"max": [10, 10, 10], "last_max": [10, 10, 10], "time": [60, 60, 60]}

    @staticmethod
    def planes(**columns):
        values = {**TestQuietStep.BASE, "interactions": [0, 0, 0], **columns}
        dtypes = {"max": np.float32, "last_max": np.float32, "time": np.float32}
        planes = {
            key: np.array([value], dtype=dtypes.get(key, np.int32))
            for key, value in values.items()
        }
        planes["resets"] = np.zeros((1, 3), dtype=np.int64)
        return planes

    def check(self, safe, past, initiators, responders):
        """``safe`` is certified and matches the staged step; ``past`` is not.

        Returns the staged step's planes and draws on ``past``.
        """
        protocol = VectorizedDynamicCounting()
        quiet_planes, quiet, draws = run_step(protocol, safe, initiators, responders, 1)
        staged_planes, _, _ = run_step(protocol, safe, initiators, responders, 1, staged=True)
        assert quiet and draws == 0
        for key, plane in staged_planes.items():
            assert np.array_equal(quiet_planes[key], plane), key
        _, quiet, _ = run_step(protocol, past, initiators, responders, 1)
        assert not quiet
        staged_planes, _, draws = run_step(protocol, past, initiators, responders, 1, staged=True)
        return staged_planes, draws

    def test_a_max_one_unit_off_is_adopted(self):
        # Clause (a): agent 1 holds max 11; both endpoints exchange, so
        # agent 0 adopts it, a write to max the quiet rule never makes.
        staged, draws = self.check(
            self.planes(),
            self.planes(max=[10, 11, 10], last_max=[10, 11, 10]),
            [[0]],
            [[1]],
        )
        assert staged["max"][0].tolist() == [11, 11, 10] and draws == 0

    def test_a_counter_one_past_the_backup_threshold_draws(self):
        # Clause (b): agent 0 initiates twice (k = 2), so its second
        # initiation reads interactions + 1; at 200 that is 201 > 200.
        staged, draws = self.check(
            self.planes(interactions=[199, 0, 0]),
            self.planes(interactions=[200, 0, 0]),
            [[0, 0]],
            [[1, 2]],
        )
        # The backup restarts the counter, and line 15 counts the interaction.
        assert draws == 1 and staged["interactions"][0, 0] == 1

    def test_a_responder_one_past_tau3_L_blocks_the_share(self):
        # Clause (c), first branch, with L = 12 > M = 10 (agent 1's lastMax),
        # so tau3 * L = 24 against tau3 * M = 20.  Agent 1 initiates first
        # (k = 1), meeting agent 2 at time 24, and drops to time - 1; then
        # agent 0, exchanging, meets it as a responder.  From time 25 it is
        # still holding; from 24 it reads 23 < 24, in the reset phase, and
        # agent 0 does not take its lastMax.  Time 24 passes tau3 * M = 20:
        # a certificate testing M instead of L would accept this step.
        safe_time, past_time = [60, 25, 24], [60, 24, 24]
        staged, draws = self.check(
            self.planes(last_max=[10, 12, 10], time=safe_time),
            self.planes(last_max=[10, 12, 10], time=past_time),
            [[1, 0]],
            [[2, 1]],
        )
        assert staged["last_max"][0].tolist() == [10, 12, 10] and draws == 0

    @pytest.mark.parametrize(
        ("safe_time", "past_time", "initiators", "responders"),
        [
            # max time < tau2 * M: at 40 agent 1 exchanges, so agent 0, in
            # the reset phase, resets on meeting it.
            ([5, 39, 39], [5, 40, 39], [[0]], [[1]]),
            # time - k >= 0: agent 0 initiates twice, with agent 1 then
            # agent 2; from time 1 its first initiation leaves max(1, 1) - 1
            # = 0 and its second wraps around and resets.
            ([2, 1, 1], [1, 1, 1], [[0, 0]], [[1, 2]]),
        ],
        ids=["exchange-at-tau2-M", "countdown-reaches-zero"],
    )
    def test_a_countdown_one_past_the_second_branch_resets(
        self, safe_time, past_time, initiators, responders
    ):
        # Clause (c), second branch: no agent exchanges and no countdown of
        # the step reaches zero.  The first branch fails here throughout
        # (time - k < tau3 * L = 20).
        staged, draws = self.check(
            self.planes(time=safe_time), self.planes(time=past_time), initiators, responders
        )
        assert draws == 1 and staged["resets"][0, 0] == 1

    def test_most_steps_of_a_converged_run_are_quiet(self):
        """The engine counts the quiet block-steps of each run into its metadata.

        Three trials of 2000 agents make one trial block, so a block-step
        is a step.  From the initial configuration (``max = 1``, ``time =
        tau1``) some agent initiates more than ``tau1 - tau3 = 4`` times in
        a step, so no early step is certified; once the estimates have
        converged, most steps are.
        """
        engine = make_engine("ensemble", VectorizedDynamicCounting(), 2000, trials=3, seed=1)
        assert engine._trial_block(2000) == 3
        assert engine.run(10).metadata["quiet_steps"] == 0
        engine.run(90)
        assert engine.run(200).metadata["quiet_steps"] >= 100
