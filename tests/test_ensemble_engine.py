"""Tests for the stacked whole-ensemble engine.

Covers the acceptance surface of the ensemble work: registry round-trips,
`RunResult`-compatible per-trial series, statistical equivalence with looped
one-row `batched` trials, per-trial stream independence, resize schedules
applied across all rows, the `interact_ensemble` kernels against the exact
scalar `interact` rules, every vectorised protocol at the smallest
populations (two and three agents), the `run_engine_trials` ensemble mode,
and the `--engine ensemble` experiment path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.batch_engine import flat_pair_indices
from repro.engine.ensemble_engine import EnsembleRunResult, EnsembleSimulator
from repro.engine.errors import ConfigurationError
from repro.engine.protocol import InteractionContext
from repro.engine.registry import ENGINE_NAMES, make_engine
from repro.engine.runner import aggregate_series, run_engine_trials
from repro.engine.rng import RandomSource, spawn_streams
from repro.experiments.base import ExperimentPreset
from repro.experiments.fig3_relative_error import run_fig3
from repro.protocols.epidemic import InfectionEpidemic, MaxEpidemic
from repro.protocols.junta import JuntaElection, JuntaState
from repro.protocols.majority import ApproximateMajority
from repro.protocols.vectorized import (
    VectorizedApproximateMajority,
    VectorizedInfectionEpidemic,
    VectorizedJuntaElection,
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

    @pytest.mark.parametrize("other", ["sequential", "batched"])
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
        engine = EnsembleSimulator(
            VectorizedMaxEpidemic(initial_value=0), 64, trials=6, seed=8
        )
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
        ("protocol", "scalar", "low", "high"),
        [
            (VectorizedMaxEpidemic(one_way=True), MaxEpidemic(one_way=True), 0, 9),
            (VectorizedMaxEpidemic(one_way=False), MaxEpidemic(one_way=False), 0, 9),
            (VectorizedInfectionEpidemic(one_way=True), InfectionEpidemic(one_way=True), 0, 2),
            (VectorizedInfectionEpidemic(one_way=False), InfectionEpidemic(one_way=False), 0, 2),
            (VectorizedApproximateMajority(), ApproximateMajority(), -1, 2),
        ],
        ids=["max-one-way", "max-two-way", "infection-one-way", "infection-two-way", "majority"],
    )
    def test_matches_exact_single_pair_rule(self, protocol, scalar, low, high):
        """Deterministic protocols agree lane-for-lane with the scalar ``interact``.

        On a sub-batch where no agent appears in two pairs, batch semantics
        (responders read at the start of the batch, last writer wins) and
        sequential semantics coincide, so the stacked kernel must leave
        exactly the state the exact scalar rule leaves, applied pair by
        pair.  Majority opinions map through
        :attr:`VectorizedApproximateMajority.CODES`.
        """
        codes = VectorizedApproximateMajority.CODES
        states = {code: state for state, code in codes.items()}
        majority = isinstance(scalar, ApproximateMajority)
        ctx = InteractionContext(RandomSource.from_seed(0))
        trials, n, batch = 4, 40, 12
        rng = np.random.default_rng(21)
        ((key, plane),) = protocol.initial_arrays(n, RandomSource.from_seed(0)).items()
        exact = rng.integers(low, high, size=(trials, n)).astype(plane.dtype)
        stacked = {key: exact.copy()}
        for _ in range(5):
            initiators, responders = _disjoint_pairs(rng, trials, n, batch)
            protocol.interact_ensemble(stacked, initiators, responders, None)
            for t in range(trials):
                row = [states[int(x)] if majority else int(x) for x in exact[t]]
                for u, v in zip(initiators[t], responders[t]):
                    row[u], row[v] = scalar.interact(row[u], row[v], ctx)
                exact[t] = [codes[x] if majority else x for x in row]
            assert np.array_equal(stacked[key], exact)

    def test_junta_matches_exact_rule_under_shared_coins(self):
        """The coin-using junta kernel agrees lane-for-lane with the scalar rule.

        Both sides read one pre-drawn coin per pair: the kernel through
        ``coin_lanes`` (row-major lane order), the scalar rule through
        ``coin()``.  Levels start near the cap so capped climbs are covered.
        """

        class LaneCoins:
            def __init__(self, coins):
                self.coins = coins

            def coin_lanes(self, lanes, width):
                return self.coins.ravel()[lanes]

        class PairCoin:
            heads = False

            def coin(self):
                return self.heads

        max_level = 6
        scalar = JuntaElection(max_level=max_level)
        protocol = VectorizedJuntaElection(max_level=max_level)
        pair_coin = PairCoin()
        ctx = InteractionContext(pair_coin)
        trials, n, batch = 4, 40, 12
        rng = np.random.default_rng(23)
        stacked = {
            "level": rng.integers(0, max_level + 1, size=(trials, n)),
            "climbing": rng.integers(0, 2, size=(trials, n)).astype(np.int8),
            "max_seen": rng.integers(0, max_level + 1, size=(trials, n)),
        }
        exact = [
            [
                JuntaState(int(level), bool(climbing), int(seen))
                for level, climbing, seen in zip(*(stacked[k][t] for k in stacked))
            ]
            for t in range(trials)
        ]
        for _ in range(5):
            initiators, responders = _disjoint_pairs(rng, trials, n, batch)
            coins = rng.integers(0, 2, size=(trials, batch)).astype(bool)
            protocol.interact_ensemble(stacked, initiators, responders, LaneCoins(coins))
            for t, row in enumerate(exact):
                for i, (u, v) in enumerate(zip(initiators[t], responders[t])):
                    pair_coin.heads = bool(coins[t, i])
                    row[u], row[v] = scalar.interact(row[u], row[v], ctx)
            for key, attr in (
                ("level", "level"),
                ("climbing", "climbing"),
                ("max_seen", "max_seen_level"),
            ):
                expected = [[int(getattr(state, attr)) for state in row] for row in exact]
                assert stacked[key].tolist() == expected, key
        assert np.array_equal(
            protocol.output_array(stacked),
            [[float(scalar.output(state)) for state in row] for row in exact],
        )

    def test_flat_pair_indices_follow_row_major_lane_order(self):
        initiators = np.array([[0, 2], [1, 1]], dtype=np.int32)
        responders = np.array([[1, 0], [2, 0]], dtype=np.int32)
        u, v = flat_pair_indices(initiators, responders, 3)
        assert u.tolist() == [0, 2, 4, 4]
        assert v.tolist() == [1, 0, 5, 3]
        assert u.dtype == v.dtype == np.intp

    def test_flat_pair_indices_do_not_wrap_past_int32(self):
        """int32 pair matrices over ``rows * n >= 2**31`` slots stay non-negative."""
        zeros = np.zeros((3, 1), dtype=np.int32)
        u, v = flat_pair_indices(zeros, zeros + 1, 2**30)
        assert u.tolist() == [0, 2**30, 2**31]
        assert v.tolist() == [1, 2**30 + 1, 2**31 + 1]

    def test_every_registered_protocol_runs_on_ensemble(self):
        for protocol in (MaxEpidemic(initial_value=1), ApproximateMajority("A")):
            result = make_engine("ensemble", protocol, 30, trials=3, seed=9).run(4)
            assert result.parallel_time == 4
            assert len(result.trial_results) == 3


def _tiny_workload(key, n):
    """A vectorised protocol and its seeded initial arrays at size ``n``."""
    if key == "dynamic-counting":
        return VectorizedDynamicCounting(), None
    if key == "max-epidemic":
        protocol = VectorizedMaxEpidemic(one_way=True)
        return protocol, protocol.seeded_arrays(n, 5.0)
    if key == "infection":
        protocol = VectorizedInfectionEpidemic(one_way=True)
        return protocol, protocol.seeded_arrays(n)
    if key == "junta":
        return VectorizedJuntaElection(max_level=20), None
    if key == "majority":
        protocol = VectorizedApproximateMajority()
        return protocol, protocol.arrays_from_counts(1, 1, n - 2)
    raise KeyError(key)


class TestTinyPopulations:
    """Every vectorised protocol on the stacked engines at n = 2 and n = 3.

    With no small-population tier, an auto point this small runs on
    ``batched`` (one trial) or ``ensemble`` (several).  A sub-batch here
    holds a single pair, and each protocol must still reach its absorbing
    state within the horizon.
    """

    HORIZON = 30

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("engine", ("batched", "ensemble"))
    @pytest.mark.parametrize(
        "key", ("dynamic-counting", "max-epidemic", "infection", "junta", "majority")
    )
    def test_protocol_runs_to_its_absorbing_state(self, key, engine, n):
        protocol, initial = _tiny_workload(key, n)
        trials = 4 if engine == "ensemble" else 1
        simulator = make_engine(
            engine,
            protocol,
            n,
            seed=17,
            initial_arrays=initial,
            trials=None if engine == "batched" else trials,
        )
        result = simulator.run(self.HORIZON)

        assert result.interactions == trials * n * self.HORIZON
        for trial_result in result.trial_results:
            assert [s.population_size for s in trial_result.snapshots] == [
                n
            ] * self.HORIZON
        outputs = simulator.outputs()
        assert outputs.shape == (trials, n)
        assert np.isfinite(outputs).all()
        arrays = simulator.arrays
        if key == "max-epidemic":
            assert (outputs == 5.0).all()
        elif key == "infection":
            assert (outputs == 1.0).all()
        elif key == "majority":
            # One A against one B: every row reaches consensus on one of them.
            for row in outputs:
                assert row[0] != 0 and (row == row[0]).all()
        elif key == "junta":
            # Every climb has stopped, the top level has spread to everyone,
            # and the agents on it form a non-empty junta.
            assert (arrays["climbing"] == 0).all()
            top = arrays["level"].max(axis=1, keepdims=True)
            assert (arrays["max_seen"] == top).all()
            assert np.array_equal(outputs, (arrays["level"] == top).astype(float))
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
