"""Tests for the stacked whole-ensemble engine.

Covers the acceptance surface of the ensemble work: registry round-trips,
`RunResult`-compatible per-trial series, statistical equivalence with looped
one-row `batched` trials, per-trial stream independence, resize schedules
applied across all rows, the stacked layout the kernels receive (the
tests' max-epidemic kernel against its exact scalar `interact` rule),
every engine at the smallest populations (two and three agents), the
`run_engine_trials` ensemble mode, and the `--engine ensemble` experiment
path.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from max_epidemic import VectorizedMaxEpidemic

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.phase_clock import UniformPhaseClock
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.ensemble_engine import (
    EnsembleRunResult,
    EnsembleSimulator,
    flat_pair_indices,
    flat_planes,
)
from repro.engine.errors import CheckpointError, ConfigurationError
from repro.engine.options import ExecutionOptions
from repro.engine.population import Population
from repro.engine.protocol import InteractionContext
from repro.engine.registry import ENGINE_NAMES, make_engine, registered_protocols
from repro.engine.runner import aggregate_series, run_engine_trials
from repro.engine.rng import RandomSource, RowStreams, SeedTree, spawn_streams
from repro.experiments.base import ExperimentPreset
from repro.protocols.epidemic import InfectionEpidemic, MaxEpidemic
from repro.protocols.junta import JuntaElection
from repro.protocols.majority import ApproximateMajority
from repro.scenarios import run_scenario


def _ensemble_factory(engine_name, rng, trials):
    return make_engine(engine_name, DynamicSizeCounting(), 50, rng=rng, trials=trials)


class TestRegistry:
    def test_ensemble_is_registered(self):
        assert "ensemble" in ENGINE_NAMES

    def test_make_engine_round_trip(self):
        engine = make_engine("ensemble", DynamicSizeCounting(), 30, trials=4, seed=1)
        assert isinstance(engine, EnsembleSimulator)
        assert engine.trials == 4
        result = engine.run(3)
        assert isinstance(result, EnsembleRunResult)
        assert result.metadata["engine"] == "ensemble"
        assert result.metadata["trials"] == 4

    def test_trials_defaults_to_one(self):
        engine = make_engine("ensemble", DynamicSizeCounting(), 30, seed=1)
        assert engine.trials == 1

    @pytest.mark.parametrize("other", ["sequential", "batched"])
    def test_trials_rejected_for_other_engines(self, other):
        with pytest.raises(ConfigurationError):
            make_engine(other, DynamicSizeCounting(), 30, seed=1, trials=4)

    def test_rejects_bad_trials_and_sub_batches(self):
        with pytest.raises(ConfigurationError):
            EnsembleSimulator(VectorizedDynamicCounting(), 10, trials=0, seed=1)
        with pytest.raises(ConfigurationError):
            EnsembleSimulator(VectorizedDynamicCounting(), 10, trials=2, seed=1, sub_batches=0)

    def test_rejects_row_streams_for_another_trial_count(self):
        streams = RowStreams([RandomSource.from_seed(seed) for seed in (1, 2)])
        with pytest.raises(ConfigurationError, match="2 row streams for an engine of 3 trials"):
            EnsembleSimulator(VectorizedDynamicCounting(), 10, trials=3, rng=streams)

    def test_restore_rejects_a_checkpoint_of_another_trial_count(self):
        three = EnsembleSimulator(VectorizedDynamicCounting(), 10, trials=3, seed=1)
        three.run(2)
        four = EnsembleSimulator(VectorizedDynamicCounting(), 10, trials=4, seed=1)
        with pytest.raises(CheckpointError, match="stacks 3 trials, this engine stacks 4"):
            four.apply_checkpoint_payload(three.checkpoint_payload())


class TestResultShape:
    def test_per_trial_results_are_run_result_compatible(self):
        engine = make_engine("ensemble", DynamicSizeCounting(), 50, trials=6, seed=2)
        result = engine.run(8)
        assert result.trials == 6
        assert len(result.trial_results) == 6
        for trial, trial_result in enumerate(result.trial_results):
            assert trial_result.parallel_time == 8
            assert trial_result.final_size == 50
            assert trial_result.interactions == 8 * 50
            assert trial_result.metadata["trial"] == trial
            series = trial_result.series()
            assert set(series) == {
                "parallel_time",
                "population_size",
                "minimum",
                "median",
                "maximum",
            }
            assert series["parallel_time"] == [float(t) for t in range(1, 9)]
        assert result.interactions == 6 * 8 * 50

    def test_pooled_snapshots_aggregate_trial_statistics(self):
        engine = make_engine("ensemble", DynamicSizeCounting(), 40, trials=5, seed=3)
        result = engine.run(5)
        for i, pooled in enumerate(result.snapshots):
            mins = [tr.snapshots[i].minimum for tr in result.trial_results]
            maxs = [tr.snapshots[i].maximum for tr in result.trial_results]
            assert pooled.minimum == pytest.approx(min(mins))
            assert pooled.maximum == pytest.approx(max(maxs))

    def test_outputs_matrix_shape(self):
        engine = EnsembleSimulator(VectorizedDynamicCounting(), 25, trials=3, seed=4)
        engine.run(2)
        assert engine.outputs().shape == (3, 25)


class TestIndependence:
    def test_trial_rows_diverge(self):
        engine = make_engine("ensemble", DynamicSizeCounting(), 60, trials=8, seed=5)
        result = engine.run(25)
        finals = [tr.snapshots[-1].median for tr in result.trial_results]
        assert len(set(finals)) > 1

    def test_reproducible_under_seed(self):
        runs = []
        for _ in range(2):
            result = make_engine(
                "ensemble", DynamicSizeCounting(), 40, trials=4, seed=11
            ).run(10)
            runs.append([s.median for tr in result.trial_results for s in tr.snapshots])
        assert runs[0] == runs[1]


class TestStatisticalEquivalence:
    def test_estimates_match_looped_batched_trials(self):
        """Ensemble trials are distributionally the same as looped batched runs."""
        n, trials, horizon = 300, 24, 60
        looped_finals = []
        looped_resets = []
        for generator in spawn_streams(77, trials):
            protocol = VectorizedDynamicCounting()
            simulator = make_engine("batched", protocol, n, rng=RandomSource(generator))
            result = simulator.run(horizon)
            looped_finals.append(result.snapshots[-1].median)
            looped_resets.append(float(np.mean(protocol.tick_count_array(simulator.arrays))))

        engine = make_engine("ensemble", DynamicSizeCounting(), n, trials=trials, seed=78)
        result = engine.run(horizon)
        ensemble_finals = [tr.snapshots[-1].median for tr in result.trial_results]
        ensemble_resets = float(np.mean(engine.arrays["resets"]))

        assert np.mean(ensemble_finals) == pytest.approx(np.mean(looped_finals), abs=1.0)
        # Reset (tick) activity drives the protocol's round structure; the
        # per-agent averages must agree within a loose statistical band.
        assert ensemble_resets == pytest.approx(np.mean(looped_resets), rel=0.25)


class TestResizeSchedule:
    def test_shrink_applies_to_every_row(self):
        engine = make_engine(
            "ensemble", DynamicSizeCounting(), 100, trials=5, seed=6, resize_schedule=[(3, 20)]
        )
        result = engine.run(6)
        assert result.final_size == 20
        for trial_result in result.trial_results:
            assert trial_result.final_size == 20
            assert [s.population_size for s in trial_result.snapshots][-1] == 20
        for arr in engine.arrays.values():
            assert arr.shape == (5, 20)

    def test_grow_appends_fresh_rows(self):
        engine = make_engine(
            "ensemble", DynamicSizeCounting(), 20, trials=3, seed=7, resize_schedule=[(2, 50)]
        )
        result = engine.run(4)
        assert result.final_size == 50
        for arr in engine.arrays.values():
            assert arr.shape == (3, 50)

    def test_shrunk_rows_are_independent_subsets(self):
        """Decimation keeps an independently drawn subset per trial."""
        engine = EnsembleSimulator(VectorizedMaxEpidemic(), 64, trials=6, seed=8)
        # Give every agent a distinct value per row so kept subsets are visible.
        engine.arrays["value"] = np.tile(np.arange(64, dtype=np.float64), (6, 1))
        engine.resize_to(16)
        kept = {tuple(row) for row in engine.arrays["value"]}
        assert len(kept) > 1


def _disjoint_pairs(rng, trials, n, batch):
    """``(trials, batch)`` pairs in which no agent of a row appears twice."""
    agents = np.argsort(rng.random((trials, n)), axis=1)[:, : 2 * batch]
    return agents[:, :batch], agents[:, batch:]


class TestEnsembleKernels:
    @pytest.mark.parametrize(
        ("protocol", "scalar"),
        [(VectorizedMaxEpidemic(), MaxEpidemic(one_way=True))],
        ids=["max-one-way"],
    )
    def test_matches_exact_single_pair_rule(self, protocol, scalar, stacked_kernel):
        """A deterministic kernel agrees lane-for-lane with the scalar ``interact``.

        On a sub-batch where no agent appears in two pairs, batch semantics
        (responders read at the start of the batch, last writer wins) and
        sequential semantics coincide, so the kernel, handed the stacked
        layout's flat planes and pair coordinates, must leave exactly the
        state the exact scalar rule leaves, applied pair by pair in every row.
        """
        ctx = InteractionContext(RandomSource.from_seed(0))
        trials, n, batch = 4, 40, 12
        rng = np.random.default_rng(21)
        exact = rng.integers(0, 9, size=(trials, n)).astype(np.float64)
        stacked = {"value": exact.copy()}
        for _ in range(5):
            initiators, responders = _disjoint_pairs(rng, trials, n, batch)
            stacked_kernel(protocol, stacked, initiators, responders, None)
            for t in range(trials):
                row = [int(x) for x in exact[t]]
                for u, v in zip(initiators[t], responders[t]):
                    row[u], row[v] = scalar.interact(row[u], row[v], ctx)
                exact[t] = row
            assert np.array_equal(stacked["value"], exact)

    def test_flat_pair_indices_follow_row_major_lane_order(self):
        initiators = np.array([[0, 2], [1, 1]], dtype=np.int32)
        responders = np.array([[1, 0], [2, 0]], dtype=np.int32)
        u, v = flat_pair_indices(initiators, responders, 3)
        assert u.shape == v.shape == (2, 2)
        assert u.ravel().tolist() == [0, 2, 4, 4]
        assert v.ravel().tolist() == [1, 0, 5, 3]
        assert u.dtype == v.dtype == np.intp

    def test_flat_pair_indices_do_not_wrap_past_int32(self):
        """int32 pair matrices over ``rows * n >= 2**31`` slots stay non-negative."""
        zeros = np.zeros((3, 1), dtype=np.int32)
        u, v = flat_pair_indices(zeros, zeros + 1, 2**30)
        assert u.ravel().tolist() == [0, 2**30, 2**31]
        assert v.ravel().tolist() == [1, 2**30 + 1, 2**31 + 1]

    def test_flat_planes_are_views_of_a_row_block(self):
        planes = {"value": np.zeros((4, 3)), "flag": np.zeros((4, 3), dtype=np.int8)}
        flat = flat_planes({key: plane[1:3] for key, plane in planes.items()})
        assert {key: arr.shape for key, arr in flat.items()} == {"value": (6,), "flag": (6,)}
        flat["value"][[0, 5]] = 1.0
        assert np.argwhere(planes["value"]).tolist() == [[1, 0], [2, 2]]

    def test_flat_planes_refuse_a_non_contiguous_plane(self):
        with pytest.raises(ConfigurationError, match="C-contiguous"):
            flat_planes({"value": np.zeros((3, 4))[:, ::2]})

    def test_engine_builds_the_layout_once_per_step_and_block(self, monkeypatch):
        """Every kernel call gets flat views and a column slice of its block's coordinates."""

        class Recording(VectorizedMaxEpidemic):
            def __init__(self):
                super().__init__()
                self.calls = []

            def interact_ensemble(self, arrays, initiators, responders, rng):
                self.calls.append((arrays, initiators, responders))
                super().interact_ensemble(arrays, initiators, responders, rng)

        n, trials = 20, 3
        # Two rows of float64 state per block: blocks [0, 2) and [2, 3).
        monkeypatch.setattr(EnsembleSimulator, "_BLOCK_STATE_BYTES", 2 * n * 8)
        protocol = Recording()
        engine = EnsembleSimulator(protocol, n, trials=trials, seed=3, sub_batches=4)
        engine.step_parallel_round()
        assert len(protocol.calls) == 8
        for block, (g0, g1) in enumerate(((0, 2), (2, 3))):
            calls = protocol.calls[4 * block : 4 * block + 4]
            assert len({id(arrays) for arrays, _, _ in calls}) == 1
            (plane,) = calls[0][0].values()
            assert plane.ndim == 1 and plane.size == (g1 - g0) * n
            assert np.shares_memory(plane, engine.arrays["value"][g0:g1])
            for matrix in (1, 2):
                assert len({id(call[matrix].base) for call in calls}) == 1
                for call in calls:
                    coords = call[matrix]
                    assert coords.dtype == np.intp and coords.shape == (g1 - g0, 5)
                    rows = coords // n
                    assert (rows == np.arange(g1 - g0)[:, None]).all()

    def test_every_registered_protocol_runs_on_ensemble(self):
        protocols = (DynamicSizeCounting(), UniformPhaseClock())
        assert [type(p).__name__ for p in protocols] == registered_protocols()
        for protocol in protocols:
            result = make_engine("ensemble", protocol, 30, trials=3, seed=9).run(4)
            assert result.parallel_time == 4
            assert len(result.trial_results) == 3


def _tiny_workload(key, engine, n):
    """A protocol and its seeded initial configuration at size ``n``.

    Returns ``(protocol, population, initial_arrays)``: the stacked engines
    get the vectorised protocol, the counts engine the scalar one (its
    kernel found through the registry), and the sequential engine the
    scalar one with a seeded ``Population``.
    """
    if key == "dynamic-counting":
        if engine in ("batched", "ensemble"):
            return VectorizedDynamicCounting(), n, None
        return DynamicSizeCounting(), n, None
    if key == "max-epidemic":
        if engine == "sequential":
            return MaxEpidemic(), Population([5] + [0] * (n - 1)), None
        value = np.zeros(n)
        value[0] = 5.0
        protocol = MaxEpidemic() if engine == "counts" else VectorizedMaxEpidemic()
        return protocol, n, {"value": value}
    # The toolbox protocols run on the sequential engine only.
    if key == "infection":
        return InfectionEpidemic(one_way=True), Population([1] + [0] * (n - 1)), None
    if key == "junta":
        return JuntaElection(max_level=20), n, None
    if key == "majority":
        return ApproximateMajority(), Population(["A", "B"] + ["U"] * (n - 2)), None
    raise KeyError(key)


class TestReplacedState:
    """An engine whose planes or random source are replaced goes on like a new one.

    Whatever replaces a plane or the source between steps (a resize, a
    checkpoint restore, an assignment), the engine must go on exactly as a
    fresh engine built from the new planes and random state would.  A
    960-byte row (40 agents of 24 bytes) against a two-row budget splits
    five trials into three blocks.
    """

    N, TRIALS = 40, 5

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(EnsembleSimulator, "_BLOCK_STATE_BYTES", 2 * self.N * 24)

    @staticmethod
    def _rng(kind, seed, trials):
        if kind == "batched":
            tree = SeedTree.from_seed(seed)
            return RowStreams([tree.trial(t).source() for t in range(trials)])
        return RandomSource.from_seed(seed)

    def _engine(self, kind, seed=3):
        rng = self._rng(kind, seed, self.TRIALS)
        return EnsembleSimulator(VectorizedDynamicCounting(), self.N, trials=self.TRIALS, rng=rng)

    def _fresh_twin(self, engine, kind):
        """A new engine built from ``engine``'s planes and random state."""
        rng = self._rng(kind, 0, engine.trials)
        rng.state = copy.deepcopy(engine.rng.state)
        planes = {key: plane.copy() for key, plane in engine.arrays.items()}
        return EnsembleSimulator(
            VectorizedDynamicCounting(),
            engine.size,
            trials=engine.trials,
            rng=rng,
            initial_arrays=planes,
        )

    def _replace(self, engine, kind, how):
        if how == "shrink":
            engine.resize_to(24)
        elif how == "grow":
            engine.resize_to(60)
        elif how == "restore":
            other = self._engine(kind, seed=11)
            other.run(7)
            engine.apply_checkpoint_payload(other.checkpoint_payload())
        elif how == "assign":
            engine.arrays["time"] = engine.arrays["time"] + 5
        else:
            engine.rng = self._rng(kind, 29, self.TRIALS)

    @pytest.mark.parametrize("how", ["shrink", "grow", "restore", "assign", "rng"])
    @pytest.mark.parametrize("kind", ["batched", "ensemble"])
    def test_replaced_state_continues_like_a_fresh_engine(self, kind, how):
        engine = self._engine(kind)
        engine.run(5)
        self._replace(engine, kind, how)
        assert engine._trial_block(engine.size) < engine.trials
        twin = self._fresh_twin(engine, kind)
        engine.run(6)
        twin.run(6)
        for key, plane in twin.arrays.items():
            assert np.array_equal(engine.arrays[key], plane), key
        assert engine.rng.state == twin.rng.state


TINY_CASES = [
    *(
        (key, engine)
        for key in ("dynamic-counting", "max-epidemic")
        for engine in ("batched", "ensemble", "counts", "sequential")
    ),
    *((key, "sequential") for key in ("infection", "junta", "majority")),
]


@pytest.mark.usefixtures("max_epidemic_kernels")
class TestTinyPopulations:
    """Every engine at n = 2 and n = 3.

    With no small-population tier, an auto point this small runs on
    ``batched`` (one trial) or ``ensemble`` (several) for a protocol with a
    vectorised kernel, and on ``sequential`` for a toolbox protocol; the
    counts engine runs it when pinned.  A sub-batch here holds a single
    pair, and each protocol must still reach its absorbing state within the
    horizon.
    """

    HORIZON = 30

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize(
        ("key", "engine"), TINY_CASES, ids=[f"{key}-{engine}" for key, engine in TINY_CASES]
    )
    def test_protocol_runs_to_its_absorbing_state(self, key, engine, n):
        protocol, population, initial = _tiny_workload(key, engine, n)
        trials = 4 if engine == "ensemble" else 1
        simulator = make_engine(
            engine,
            protocol,
            population,
            seed=17,
            initial_arrays=initial,
            trials=trials if engine == "ensemble" else None,
        )
        result = simulator.run(self.HORIZON)

        assert result.interactions == trials * n * self.HORIZON
        runs = result.trial_results if engine in ("batched", "ensemble") else [result]
        for run in runs:
            assert [s.population_size for s in run.snapshots] == [n] * self.HORIZON
        if key == "junta":
            # Every climb has stopped, the top level has spread to everyone,
            # and the agents on it form a non-empty junta.
            states = simulator.states()
            top = max(state.level for state in states)
            assert not any(state.climbing for state in states)
            assert all(state.max_seen_level == top for state in states)
            assert simulator.outputs() == [state.level == top for state in states]
            return
        if key == "majority":
            # One A against one B: the population reaches consensus on one of them.
            outputs = simulator.outputs()
            assert outputs[0] in ("A", "B") and outputs == [outputs[0]] * n
            return
        outputs = np.asarray(simulator.outputs(), dtype=float).reshape(trials, n)
        assert np.isfinite(outputs).all()
        if key == "max-epidemic":
            assert (outputs == 5.0).all()
        elif key == "infection":
            assert (outputs == 1.0).all()
        else:
            assert (outputs >= 0).all()


class TestInitialArrays:
    def test_one_dimensional_arrays_are_tiled(self):
        protocol = VectorizedDynamicCounting()
        initial = protocol.initial_arrays_with_estimate(20, 8.0)
        engine = EnsembleSimulator(protocol, 20, trials=4, seed=10, initial_arrays=initial)
        for key, plane in engine.arrays.items():
            assert plane.shape == (4, 20)
            expected = initial[key].astype(plane.dtype)
            for row in plane:
                assert np.array_equal(row, expected)

    def test_two_dimensional_arrays_used_per_trial(self):
        values = np.arange(12, dtype=np.float64).reshape(3, 4)
        engine = EnsembleSimulator(
            VectorizedMaxEpidemic(), 4, trials=3, seed=11, initial_arrays={"value": values}
        )
        assert np.array_equal(engine.arrays["value"], values)

    def test_wrong_leading_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            EnsembleSimulator(
                VectorizedMaxEpidemic(),
                4,
                trials=3,
                seed=12,
                initial_arrays={"value": np.zeros((2, 4))},
            )

    def test_counting_state_uses_narrow_dtypes(self):
        engine = EnsembleSimulator(VectorizedDynamicCounting(), 10, trials=2, seed=13)
        assert engine.arrays["max"].dtype == np.float32
        assert engine.arrays["interactions"].dtype == np.int32
        assert engine.arrays["resets"].dtype == np.int64

    def test_theory_parameters_keep_wide_planes(self):
        """Constants whose countdown values exceed float32's exact-integer
        range must disable the narrow planes — otherwise the -1 per
        interaction would be silently rounded away."""
        from repro.core.params import theory_parameters

        protocol = VectorizedDynamicCounting(theory_parameters(16))
        assert protocol.ensemble_state_dtypes is None
        engine = EnsembleSimulator(protocol, 30, trials=2, seed=14)
        assert engine.arrays["time"].dtype == np.float64
        before = engine.arrays["time"].copy()
        engine.run(2)
        assert not np.array_equal(engine.arrays["time"], before)

    def test_oversized_initial_values_skip_narrowing(self):
        """Initial planes too large for exact float32 keep their dtypes."""
        protocol = VectorizedDynamicCounting()
        initial = protocol.initial_arrays_with_estimate(10, 4.0)
        initial["time"] = np.full(10, 2.0**25)
        engine = EnsembleSimulator(protocol, 10, trials=2, seed=15, initial_arrays=initial)
        assert engine.arrays["time"].dtype == np.float64
        assert engine.arrays["max"].dtype == np.float64

    def test_inexact_initial_values_skip_narrowing(self):
        """A value float32 cannot hold exactly keeps every plane at its own dtype."""
        protocol = VectorizedDynamicCounting()
        initial = protocol.initial_arrays_with_estimate(10, 4.0)
        initial["last_max"] = np.full(10, 0.1)
        engine = EnsembleSimulator(protocol, 10, trials=2, seed=16, initial_arrays=initial)
        assert {key: plane.dtype for key, plane in engine.arrays.items()} == {
            key: plane.dtype for key, plane in initial.items()
        }
        assert (engine.arrays["last_max"] == 0.1).all()

    def test_protocol_without_state_arrays_is_rejected(self):
        class Stateless(VectorizedMaxEpidemic):
            def initial_arrays(self, n, rng):
                return {}

        with pytest.raises(ConfigurationError, match="no state arrays"):
            EnsembleSimulator(Stateless(), 10, trials=2, seed=17)

    def test_planes_of_unequal_length_are_rejected(self):
        initial = {"value": np.zeros(10), "extra": np.zeros(9)}
        with pytest.raises(ConfigurationError, match="inconsistent shapes"):
            EnsembleSimulator(
                VectorizedMaxEpidemic(), 10, trials=2, seed=18, initial_arrays=initial
            )


class TestEnsembleTrials:
    def test_serial_ensemble_is_one_root_stack(self):
        """workers=None runs every trial in one stack on the run's seed."""
        series = run_engine_trials(
            _ensemble_factory, engine="ensemble", trials=5, seed=31, parallel_time=10
        )
        stack = make_engine("ensemble", DynamicSizeCounting(), 50, trials=5, seed=31)
        expected = [trial.series() for trial in stack.run(10).trial_results]
        assert series == expected
        assert all(len(s["median"]) == 10 for s in series)

    def test_run_and_aggregate(self):
        series = run_engine_trials(
            _ensemble_factory, engine="ensemble", trials=4, seed=32, parallel_time=12
        )
        aggregated = aggregate_series(
            "median", series[0]["parallel_time"], [s["median"] for s in series]
        )
        assert len(series) == 4
        assert len(aggregated.median) == len(aggregated.index) == 12


class TestExperimentPath:
    def test_fig3_ensemble_matches_looped_shape(self):
        preset = ExperimentPreset(
            name="test", population_sizes=(40, 80), parallel_time=30, trials=4
        )
        looped = run_scenario("fig3", preset=preset, options=ExecutionOptions(engine="batched"))
        stacked = run_scenario(
            "fig3", preset=preset, options=ExecutionOptions(engine="ensemble")
        )
        assert len(stacked.rows) == len(looped.rows)
        assert [row["n"] for row in stacked.rows] == [row["n"] for row in looped.rows]
        assert all(row["trials"] == 4 for row in stacked.rows)
        assert set(stacked.rows[0]) == set(looped.rows[0])
        assert stacked.metadata["engine"] == "ensemble"

    def test_cli_accepts_ensemble(self, capsys):
        from repro.experiments.cli import main

        preset_patch = pytest.MonkeyPatch()
        try:
            from repro.experiments import config

            tiny = ExperimentPreset(
                name="quick", population_sizes=(30,), parallel_time=10, trials=3
            )
            preset_patch.setitem(config.PRESETS["fig3"], "quick", tiny)
            assert main(["run", "fig3", "--effort", "quick", "--engine", "ensemble"]) == 0
        finally:
            preset_patch.undo()
        out = capsys.readouterr().out
        assert "fig3" in out
