"""Tests for the batched engine: stacked trials with one random stream per row."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from max_epidemic import VectorizedMaxEpidemic

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.ensemble_engine import EnsembleSimulator
from repro.engine.errors import ConfigurationError
from repro.engine.registry import make_engine
from repro.engine.rng import RandomSource, RowStreams, SeedTree
from repro.engine.runner import run_engine_trials
from repro.protocols.epidemic import MaxEpidemic


class TestConstruction:
    def test_initial_arrays_created(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        assert sim.size == 10
        assert np.all(sim.outputs() == 0)

    def test_rejects_small_population(self):
        with pytest.raises(ConfigurationError):
            make_engine("batched", VectorizedMaxEpidemic(), 1, seed=1)

    def test_rejects_bad_sub_batches(self):
        with pytest.raises(ConfigurationError):
            make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1, sub_batches=0)

    def test_rejects_inconsistent_initial_arrays(self):
        with pytest.raises(ConfigurationError):
            make_engine(
                "batched",
                VectorizedMaxEpidemic(),
                10,
                seed=1,
                initial_arrays={"value": np.zeros(4)},
            )

    def test_initial_arrays_are_copied(self):
        source = {"value": np.zeros(5)}
        sim = make_engine("batched", VectorizedMaxEpidemic(), 5, seed=1, initial_arrays=source)
        sim.arrays["value"][0] = 99
        assert source["value"][0] == 0

    def test_invalid_resize_schedule(self):
        with pytest.raises(ConfigurationError):
            make_engine(
                "batched", VectorizedMaxEpidemic(), 10, seed=1, resize_schedule=[(-1, 5)]
            )
        with pytest.raises(ConfigurationError):
            make_engine(
                "batched", VectorizedMaxEpidemic(), 10, seed=1, resize_schedule=[(1, 1)]
            )


class TestRun:
    def test_epidemic_spreads(self):
        initial = {"value": np.zeros(100)}
        initial["value"][0] = 7
        sim = make_engine("batched", VectorizedMaxEpidemic(), 100, seed=2, initial_arrays=initial)
        result = sim.run(60)
        assert np.all(sim.outputs() == 7)
        assert result.final_size == 100
        assert result.parallel_time == 60

    def test_snapshots_per_step(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        result = sim.run(5)
        assert [s.parallel_time for s in result.snapshots] == [1, 2, 3, 4, 5]

    def test_snapshot_every(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        result = sim.run(6, snapshot_every=3)
        assert [s.parallel_time for s in result.snapshots] == [3, 6]

    def test_stop_when(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        result = sim.run(100, stop_when=lambda s, snap: snap.parallel_time >= 4)
        assert result.parallel_time == 4

    def test_stop_when_sets_stopped_early(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        result = sim.run(100, stop_when=lambda s, snap: snap.parallel_time >= 4)
        assert result.stopped_early is True

    def test_full_run_is_not_stopped_early(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        result = sim.run(5)
        assert result.stopped_early is False
        # A stop condition that never fires also counts as a full run.
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        result = sim.run(5, stop_when=lambda s, snap: False)
        assert result.stopped_early is False

    def test_interactions_counted(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        result = sim.run(5)
        assert result.interactions == 50

    def test_negative_time_rejected(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        with pytest.raises(ConfigurationError):
            sim.run(-1)

    def test_series_structure(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        result = sim.run(3)
        series = result.series()
        assert len(series["parallel_time"]) == 3
        assert set(series) == {
            "parallel_time",
            "population_size",
            "minimum",
            "median",
            "maximum",
        }

    def test_reproducible_with_seed(self):
        outputs = []
        for _ in range(2):
            sim = make_engine("batched", VectorizedDynamicCounting(), 200, seed=42)
            sim.run(50)
            outputs.append(sim.outputs().tolist())
        assert outputs[0] == outputs[1]


class TestOneRowEnsemble:
    def test_pooled_series_is_the_row_series(self):
        sim = make_engine("batched", VectorizedDynamicCounting(), 60, seed=3)
        result = sim.run(12)
        assert result.metadata["engine"] == "batched"
        assert result.series() == result.trial_results[0].series()


class TestResize:
    def test_shrink(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 100, seed=1)
        sim.resize_to(10)
        assert sim.size == 10

    def test_grow_uses_initial_state(self):
        initial = {"value": np.full(10, 5.0)}
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1, initial_arrays=initial)
        sim.resize_to(20)
        assert sim.size == 20
        assert np.sum(sim.outputs() == 0) == 10

    def test_resize_noop(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        sim.resize_to(10)
        assert sim.size == 10

    def test_resize_rejects_below_two(self):
        sim = make_engine("batched", VectorizedMaxEpidemic(), 10, seed=1)
        with pytest.raises(ConfigurationError):
            sim.resize_to(1)

    def test_schedule_applied_during_run(self):
        sim = make_engine(
            "batched", VectorizedMaxEpidemic(), 50, seed=1, resize_schedule=[(3, 10), (6, 30)]
        )
        result = sim.run(8)
        sizes = {s.parallel_time: s.population_size for s in result.snapshots}
        assert sizes[2] == 50
        assert sizes[3] == 10
        assert sizes[6] == 30

    def test_shrink_keeps_subset_of_values(self):
        rng = RandomSource.from_seed(3)
        initial = {"value": np.arange(30, dtype=np.float64)}
        sim = make_engine(
            "batched",
            VectorizedMaxEpidemic(), 30, rng=rng, initial_arrays=initial
        )
        sim.resize_to(5)
        assert set(sim.outputs().ravel().tolist()).issubset(set(range(30)))

    def test_grow_rejects_missing_state_variable(self):
        """Growing fails loudly when initial_arrays lacks a live variable.

        This happens when a simulation is started from hand-built arrays
        with extra columns the protocol's ``initial_arrays`` does not
        produce: fresh agents would silently get no value for them.
        """
        initial = {"value": np.zeros(6), "extra": np.ones(6)}
        sim = make_engine("batched", VectorizedMaxEpidemic(), 6, seed=1, initial_arrays=initial)
        with pytest.raises(ConfigurationError) as excinfo:
            sim.resize_to(12)
        assert "extra" in str(excinfo.value)
        # The failed grow must leave the state untouched (no partial resize).
        assert sim.arrays["value"].shape == (1, 6)
        assert sim.arrays["extra"].shape == (1, 6)

    def test_shrink_to_two_still_runs(self):
        sim = make_engine("batched", VectorizedDynamicCounting(), 50, seed=4)
        sim.run(2)
        sim.resize_to(2)
        assert sim.size == 2
        result = sim.run(3)
        assert result.final_size == 2
        assert result.parallel_time == 5

    def test_resize_scheduled_at_time_zero(self):
        """A resize at time 0 fires at the first snapshot boundary."""
        sim = make_engine(
            "batched", VectorizedMaxEpidemic(), 40, seed=2, resize_schedule=[(0, 8)]
        )
        assert sim.size == 40
        result = sim.run(2)
        assert result.snapshots[0].population_size == 8
        assert result.final_size == 8

    def test_schedule_times_in_the_past_fire_immediately(self):
        sim = make_engine(
            "batched", VectorizedMaxEpidemic(), 40, seed=2, resize_schedule=[(1, 20), (2, 6)]
        )
        result = sim.run(4, snapshot_every=4)
        # Both events land on the single snapshot at t=4, applied in order.
        assert result.final_size == 6


# ------------------------------------------------------------ stacked trials


def _counting(n):
    return DynamicSizeCounting(), None, ()


def _counting_estimate(n):
    # The fig5 workload: every agent starts from an estimate of 60.
    estimate = VectorizedDynamicCounting().initial_arrays_with_estimate(n, 60)
    return DynamicSizeCounting(), estimate, ()


def _counting_shrink_grow(n):
    # Shrink, then grow past the initial size: the shrink draws each row's
    # uniforms, the growth draws each row's fresh agents, and the grown
    # rows no longer fit one trial block at n = 3000.
    return DynamicSizeCounting(), None, ((3, max(2, n // 3)), (6, n + n // 2))


def _max_epidemic(n):
    # The scalar protocol, run through the test kernels' registration.
    value = np.zeros(n)
    value[:2] = 7.0
    return MaxEpidemic(), {"value": value}, ()


STACK_CASES = {
    "counting": _counting,
    "counting-estimate": _counting_estimate,
    "counting-shrink-grow": _counting_shrink_grow,
    "max-epidemic": _max_epidemic,
}

STACK_HORIZON = 8
STACK_SNAPSHOT_EVERY = 2
STACK_SEED = 20241017


def _stack_factory(engine_name, rng, ensemble_trials, *, case, n):
    """Module-level engine factory so worker processes can unpickle it."""
    protocol, initial_arrays, schedule = STACK_CASES[case](n)
    return make_engine(
        engine_name,
        protocol,
        n,
        rng=rng,
        initial_arrays=initial_arrays,
        resize_schedule=schedule,
    )


def _stacked(case, n, trials, workers=None):
    return run_engine_trials(
        partial(_stack_factory, case=case, n=n),
        engine="batched",
        trials=trials,
        seed=STACK_SEED,
        parallel_time=STACK_HORIZON,
        snapshot_every=STACK_SNAPSHOT_EVERY,
        workers=workers,
    )


def _looped(case, n, trials):
    """The per-trial loop: one one-row engine per trial stream."""
    tree = SeedTree.from_seed(STACK_SEED)
    series = []
    for trial in range(trials):
        engine = _stack_factory("batched", tree.trial(trial).source(), None, case=case, n=n)
        assert engine.trials == 1
        series.append(engine.run(STACK_HORIZON, snapshot_every=STACK_SNAPSHOT_EVERY).series())
    return series


@pytest.mark.usefixtures("max_epidemic_kernels")
class TestStackedTrials:
    """``run_engine_trials(engine="batched")`` equals the per-trial loop bit for bit."""

    @pytest.mark.parametrize("trials", [1, 3, 16])
    @pytest.mark.parametrize("n", [10, 50, 3000])
    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_stacks_equal_the_per_trial_loop(self, case, n, trials):
        expected = _looped(case, n, trials)
        for workers in (None, 1, 2):
            assert _stacked(case, n, trials, workers) == expected, workers

    def test_shard_runs_several_stacks(self, monkeypatch):
        # 3000 agents of dynamic counting are 72 kB of state; two rows per
        # stack turn 5 trials into stacks of 2, 2 and 1.
        built = []

        def factory(engine_name, rng, ensemble_trials):
            engine = _stack_factory(engine_name, rng, ensemble_trials, case="counting", n=3000)
            built.append((len(rng), engine.trials))
            return engine

        monkeypatch.setattr(EnsembleSimulator, "_BLOCK_STATE_BYTES", 2 * 3000 * 24)
        series = run_engine_trials(
            factory,
            engine="batched",
            trials=5,
            seed=STACK_SEED,
            parallel_time=STACK_HORIZON,
            snapshot_every=STACK_SNAPSHOT_EVERY,
        )
        assert built == [(5, 2), (3, 2), (1, 1)]
        assert series == _looped("counting", 3000, 5)

    @pytest.mark.parametrize("case", ["counting", "counting-shrink-grow", "max-epidemic"])
    def test_grouping_does_not_change_results(self, case, monkeypatch):
        monkeypatch.setattr(EnsembleSimulator, "_BLOCK_STATE_BYTES", 1)
        one_row = _stacked(case, 50, 6)
        monkeypatch.setattr(EnsembleSimulator, "_BLOCK_STATE_BYTES", 1 << 40)
        all_rows = _stacked(case, 50, 6)
        assert one_row == all_rows == _looped(case, 50, 6)

    def test_row_filling_the_budget_builds_one_row_engines(self, monkeypatch):
        rows_built = []

        def factory(engine_name, rng, ensemble_trials):
            engine = _stack_factory(engine_name, rng, ensemble_trials, case="counting", n=50)
            rows_built.append(engine.trials)
            return engine

        # One row of 50 agents holds 50 * 24 bytes of narrowed state.
        monkeypatch.setattr(EnsembleSimulator, "_BLOCK_STATE_BYTES", 50 * 24)
        run_engine_trials(
            factory, engine="batched", trials=4, seed=STACK_SEED, parallel_time=2
        )
        assert rows_built == [1, 1, 1, 1]

    @pytest.mark.parametrize(
        ("n", "rows"), [(2000, 21), (10_000, 4), (22_000, 1), (10**6, 1)]
    )
    def test_stack_size_follows_the_trial_block_budget(self, n, rows):
        assert EnsembleSimulator.stack_rows(VectorizedDynamicCounting(), n, 96) == rows

    def test_stack_never_exceeds_the_streams_offered(self):
        assert EnsembleSimulator.stack_rows(VectorizedDynamicCounting(), 10, 3) == 3

    def test_make_engine_still_builds_one_row(self):
        assert make_engine("batched", DynamicSizeCounting(), 50, seed=1).trials == 1
        rng = RandomSource.from_seed(1)
        assert make_engine("batched", DynamicSizeCounting(), 50, rng=rng).trials == 1

    def test_stack_checkpoint_carries_every_row_state(self):
        tree = SeedTree.from_seed(STACK_SEED)
        streams = RowStreams([tree.trial(t).source() for t in range(3)])
        engine = make_engine("batched", DynamicSizeCounting(), 50, rng=streams)
        engine.run(3)
        payload = engine.checkpoint_payload()
        assert payload["rng_state"] == [source.state for source in streams.sources]
        expected = engine.run(4).series()

        tree = SeedTree.from_seed(STACK_SEED)
        fresh = RowStreams([tree.trial(t).source() for t in range(3)])
        restored = make_engine("batched", DynamicSizeCounting(), 50, rng=fresh)
        restored.apply_checkpoint_payload(payload)
        assert restored.run(4).series() == expected
