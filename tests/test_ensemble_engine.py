"""Tests for the stacked whole-ensemble engine.

Covers the acceptance surface of the ensemble work: registry round-trips,
`RunResult`-compatible per-trial series, statistical equivalence with looped
`BatchedSimulator` trials, per-trial stream independence, resize schedules
applied across all rows, the `interact_ensemble` fallback contract, the
`run_engine_trials` ensemble mode, and the `--engine ensemble` experiment path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.batch_engine import BatchedSimulator, VectorizedProtocol
from repro.engine.ensemble_engine import EnsembleRunResult, EnsembleSimulator
from repro.engine.errors import ConfigurationError
from repro.engine.registry import ENGINE_NAMES, make_engine
from repro.engine.runner import aggregate_series, run_engine_trials
from repro.engine.rng import RandomSource, spawn_streams
from repro.experiments.base import ExperimentPreset
from repro.experiments.fig3_relative_error import run_fig3
from repro.protocols.epidemic import MaxEpidemic
from repro.protocols.majority import ApproximateMajority
from repro.protocols.vectorized import (
    VectorizedApproximateMajority,
    VectorizedMaxEpidemic,
)


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

    @pytest.mark.parametrize("other", ["sequential", "array", "batched"])
    def test_trials_rejected_for_other_engines(self, other):
        with pytest.raises(ConfigurationError):
            make_engine(other, DynamicSizeCounting(), 30, seed=1, trials=4)

    def test_rejects_bad_trials_and_sub_batches(self):
        with pytest.raises(ConfigurationError):
            EnsembleSimulator(VectorizedDynamicCounting(), 10, trials=0, seed=1)
        with pytest.raises(ConfigurationError):
            EnsembleSimulator(VectorizedDynamicCounting(), 10, trials=2, seed=1, sub_batches=0)


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
            simulator = BatchedSimulator(protocol, n, rng=RandomSource(generator))
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
        engine = EnsembleSimulator(
            VectorizedMaxEpidemic(initial_value=0), 64, trials=6, seed=8
        )
        # Give every agent a distinct value per row so kept subsets are visible.
        engine.arrays["value"] = np.tile(np.arange(64, dtype=np.float64), (6, 1))
        engine.resize_to(16)
        kept = {tuple(row) for row in engine.arrays["value"]}
        assert len(kept) > 1


class TestEnsembleFallback:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: VectorizedMaxEpidemic(initial_value=2, one_way=False),
            lambda: VectorizedApproximateMajority("A"),
        ],
    )
    def test_fast_path_matches_generic_fallback(self, factory):
        """Protocols without RNG in interact_batch agree lane-for-lane.

        The default ``interact_ensemble`` loops ``interact_batch`` per row;
        the fast paths must produce bit-identical state under the same pair
        draws.
        """
        protocol = factory()

        class Fallback(type(protocol)):
            interact_ensemble = VectorizedProtocol.interact_ensemble

        fallback = Fallback.__new__(Fallback)
        fallback.__dict__.update(protocol.__dict__)

        fast_engine = EnsembleSimulator(protocol, 40, trials=4, seed=21)
        slow_engine = EnsembleSimulator(fallback, 40, trials=4, seed=21)
        fast_engine.run(5)
        slow_engine.run(5)
        for key in fast_engine.arrays:
            assert np.array_equal(fast_engine.arrays[key], slow_engine.arrays[key])

    def test_every_registered_protocol_runs_on_ensemble(self):
        for protocol in (MaxEpidemic(initial_value=1), ApproximateMajority("A")):
            result = make_engine("ensemble", protocol, 30, trials=3, seed=9).run(4)
            assert result.parallel_time == 4
            assert len(result.trial_results) == 3


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
        looped = run_fig3(preset, engine="batched")
        stacked = run_fig3(preset, engine="ensemble")
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
