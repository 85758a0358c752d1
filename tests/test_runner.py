"""Tests for the multi-trial runner."""

from __future__ import annotations

import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.registry import make_engine
from repro.engine.runner import aggregate_series, run_engine_trials
from repro.protocols.static_counting import MaxGrvCounting


def _maxgrv_factory(engine_name, rng, ensemble_trials):
    """Module-level engine factory so that worker processes can unpickle it."""
    return make_engine(engine_name, MaxGrvCounting(), 40, rng=rng)


def _maxgrv_trials(trials, seed, **kwargs):
    return run_engine_trials(
        _maxgrv_factory,
        engine="sequential",
        trials=trials,
        seed=seed,
        parallel_time=15,
        **kwargs,
    )


class TestAggregateSeries:
    def test_basic_aggregation(self):
        agg = aggregate_series("x", [0, 1, 2], [[1, 2, 3], [3, 2, 1], [2, 2, 2]])
        assert agg.minimum == [1, 2, 1]
        assert agg.median == [2, 2, 2]
        assert agg.maximum == [3, 2, 3]
        assert agg.index == [0, 1, 2]

    def test_truncates_to_shortest_trial(self):
        agg = aggregate_series("x", [0, 1, 2], [[1, 2, 3], [4, 5]])
        assert len(agg.minimum) == 2

    def test_empty_trials(self):
        agg = aggregate_series("x", [0, 1], [])
        assert agg.minimum == []
        assert agg.as_dict()["median"] == []

    def test_even_number_of_trials_median(self):
        agg = aggregate_series("x", [0], [[1.0], [3.0]])
        assert agg.median == [2.0]

    def test_as_dict_round_trip(self):
        agg = aggregate_series("x", [0, 1], [[1, 2]])
        data = agg.as_dict()
        assert set(data) == {"index", "minimum", "median", "maximum"}

    def test_matches_statistics_median_reference(self):
        """The vectorised aggregation reproduces the per-column reference."""
        import statistics

        rng = __import__("numpy").random.default_rng(3)
        per_trial = [list(rng.normal(size=9)) for _ in range(5)]
        index = list(range(9))
        agg = aggregate_series("x", index, per_trial)
        for t in range(9):
            column = [trial[t] for trial in per_trial]
            assert agg.minimum[t] == min(column)
            assert agg.median[t] == statistics.median(column)
            assert agg.maximum[t] == max(column)
        assert all(isinstance(v, float) for v in agg.median)

    def test_ragged_trials_with_short_index(self):
        agg = aggregate_series("x", [0, 1], [[1, 2, 3], [4, 5, 6], [7, 8]])
        assert len(agg.median) == 2
        assert agg.median == [4.0, 5.0]


class TestLoopedTrials:
    def test_runs_requested_trials(self):
        series = _maxgrv_trials(3, 1)
        assert len(series) == 3
        assert all(len(s["parallel_time"]) == 15 for s in series)

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError):
            _maxgrv_trials(-1, 1)

    def test_trials_use_independent_streams(self):
        series = _maxgrv_trials(2, 5)
        # Different random streams almost surely give different trajectories.
        assert series[0]["maximum"] != series[1]["maximum"]

    def test_run_and_aggregate(self):
        series = _maxgrv_trials(3, 2)
        aggregated = aggregate_series(
            "maximum", series[0]["parallel_time"], [s["maximum"] for s in series]
        )
        assert len(aggregated.maximum) == len(aggregated.index) > 0
        # The estimate is the max of GRVs, so it is at least 1 everywhere.
        assert all(value >= 1 for value in aggregated.minimum)

    def test_reproducible_with_same_seed(self):
        assert _maxgrv_trials(2, 9) == _maxgrv_trials(2, 9)


class TestMultiprocessing:
    def test_parallel_matches_serial_exactly(self):
        """Fan-out over worker processes must not change any outcome.

        Each trial owns the stream at its seed-tree address, so scheduling
        is irrelevant: the parallel mode has to reproduce the serial
        results bit for bit and preserve trial order.
        """
        serial = _maxgrv_trials(4, 11)
        parallel = _maxgrv_trials(4, 11, workers=2)
        assert parallel == serial

    def test_parallel_run_and_aggregate(self):
        series = _maxgrv_trials(3, 13, workers=2)
        aggregated = aggregate_series(
            "maximum", series[0]["parallel_time"], [s["maximum"] for s in series]
        )
        assert len(series) == 3
        assert len(aggregated.maximum) == len(aggregated.index) > 0


class TestRunEngineTrials:
    """The shared trial loop used by run_estimate_trace and the scenarios."""

    @staticmethod
    def _factory(engine_name, rng, trials):
        from repro.core.dynamic_counting import DynamicSizeCounting
        from repro.engine.registry import make_engine

        return make_engine(
            engine_name,
            DynamicSizeCounting(),
            60,
            rng=rng,
            trials=trials if engine_name == "ensemble" else None,
        )

    def test_looped_mode_matches_manual_spawned_streams(self):
        from repro.core.dynamic_counting import DynamicSizeCounting
        from repro.engine.registry import make_engine
        from repro.engine.rng import RandomSource, spawn_streams
        from repro.engine.runner import run_engine_trials

        via_helper = run_engine_trials(
            self._factory, engine="sequential", trials=3, seed=5, parallel_time=8
        )
        manual = []
        for generator in spawn_streams(5, 3):
            simulator = make_engine(
                "sequential", DynamicSizeCounting(), 60, rng=RandomSource(generator)
            )
            manual.append(simulator.run(8).series())
        assert via_helper == manual

    def test_ensemble_mode_returns_one_series_per_trial(self):
        from repro.engine.runner import run_engine_trials

        series = run_engine_trials(
            self._factory, engine="ensemble", trials=4, seed=5, parallel_time=6
        )
        assert len(series) == 4
        assert all(len(s["parallel_time"]) == 6 for s in series)

    def test_rejects_zero_trials(self):
        from repro.engine.runner import run_engine_trials

        with pytest.raises(ValueError):
            run_engine_trials(
                self._factory, engine="sequential", trials=0, seed=5, parallel_time=4
            )

    @pytest.mark.parametrize("engine", ["sequential", "ensemble"])
    def test_uncheckpointed_engine_runs_once(self, engine):
        """Without checkpointing each engine covers the horizon in one call."""
        calls = []

        def counting_factory(engine_name, rng, trials):
            built = make_engine(
                engine_name,
                DynamicSizeCounting(),
                60,
                rng=rng,
                trials=trials if engine_name == "ensemble" else None,
            )
            run = built.run

            def counted(*args, **kwargs):
                calls.append(args)
                return run(*args, **kwargs)

            built.run = counted
            return built

        run_engine_trials(counting_factory, engine=engine, trials=3, seed=5, parallel_time=6)
        assert calls == [(6,)] * (1 if engine == "ensemble" else 3)
