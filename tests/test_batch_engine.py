"""Tests for the batched engine: a one-row ensemble built per trial by name."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.batch_engine import VectorizedProtocol
from repro.engine.errors import ConfigurationError
from repro.engine.registry import make_engine
from repro.engine.rng import RandomSource


class VectorizedMaxEpidemic(VectorizedProtocol):
    """Minimal vectorised protocol used to test the engine in isolation."""

    name = "vectorized-max-epidemic"

    def initial_arrays(self, n, rng):
        return {"value": np.zeros(n, dtype=np.float64)}

    def interact_ensemble(self, arrays, initiators, responders, rng):
        value = arrays["value"]
        rows = np.arange(initiators.shape[0])[:, None]
        value[rows, initiators] = np.maximum(
            value[rows, initiators], value[rows, responders]
        )

    def output_array(self, arrays):
        return arrays["value"]


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
