"""Tests for the declarative scenario API (spec, registry, runner, sweeps)."""

from __future__ import annotations

import math

import pytest

from repro.engine.errors import (
    ConfigurationError,
    InvalidScheduleError,
    UnsupportedEngineError,
)
from repro.experiments.base import ExperimentPreset, ExperimentResult
from repro.scenarios import (
    ExecutionOptions,
    ScenarioPoint,
    ScenarioSpec,
    SweepSpec,
    get_scenario,
    has_scenario,
    register,
    run_scenario,
    run_sweep,
    scenario,
    scenario_names,
    unregister,
)
from repro.scenarios import schedules
from repro.scenarios.metrics import (
    base_fields,
    schedule_fields,
    steady_window_stats,
    tracking_stats,
)
from repro.scenarios.spec import apply_axis_overrides, default_points


def tiny_preset(**overrides) -> ExperimentPreset:
    data = dict(
        name="tiny", population_sizes=(80,), parallel_time=40, trials=2, seed=11
    )
    extra = overrides.pop("extra", {})
    data.update(overrides)
    return ExperimentPreset(extra=extra, **data)


def count_metric(trace, point, preset, params):
    return {"n": point.n, "snapshots": len(trace.parallel_time)}


def make_spec(**overrides) -> ScenarioSpec:
    data = dict(name="test_spec", description="test", metrics=(count_metric,))
    data.update(overrides)
    return ScenarioSpec(**data)


class TestScenarioPoint:
    def test_validates_basic_fields(self):
        with pytest.raises(ConfigurationError):
            ScenarioPoint(n=1, seed=0, parallel_time=10, trials=1)
        with pytest.raises(ConfigurationError):
            ScenarioPoint(n=10, seed=0, parallel_time=10, trials=0)
        with pytest.raises(ConfigurationError):
            ScenarioPoint(n=10, seed=0, parallel_time=0, trials=1)

    def test_validates_schedule_at_construction(self):
        # A target below 2 is rejected up front, for every engine.
        with pytest.raises(InvalidScheduleError):
            ScenarioPoint(
                n=10, seed=0, parallel_time=10, trials=1, resize_schedule=((5, 1),)
            )
        with pytest.raises(InvalidScheduleError):
            ScenarioPoint(
                n=10,
                seed=0,
                parallel_time=10,
                trials=1,
                resize_schedule=((5, 4), (5, 6)),
            )

    def test_normalizes_schedule_to_int_pairs(self):
        point = ScenarioPoint(
            n=10, seed=0, parallel_time=10, trials=1, resize_schedule=[(5.0, 4.0)]
        )
        assert point.resize_schedule == ((5, 4),)

    def test_series_label_and_schedule(self):
        point = ScenarioPoint(n=10, seed=0, parallel_time=10, trials=1)
        assert point.series_label == "n_10"
        labelled = ScenarioPoint(
            n=10, seed=0, parallel_time=10, trials=1, label="special"
        )
        assert labelled.series_label == "special"
        # Pairs are kept in the order given (the cache key follows them);
        # the engines sort them when they apply them.
        unsorted = ScenarioPoint(
            n=10, seed=0, parallel_time=10, trials=1, resize_schedule=((6, 8), (3, 5))
        )
        assert unsorted.resize_schedule == ((6, 8), (3, 5))
        assert not hasattr(unsorted, "adversary")


class TestScenarioSpec:
    # "array" names the removed exact array engine.
    @pytest.mark.parametrize(
        "engines", (("warp",), ("sequential", "array")), ids=("warp", "array")
    )
    def test_rejects_unknown_engines(self, engines):
        with pytest.raises(ConfigurationError):
            make_spec(engines=engines)

    def test_rejects_pinned_engine_outside_supported(self):
        with pytest.raises(ConfigurationError):
            make_spec(engines=("sequential",), engine="batched")

    def test_requires_metrics_or_executor(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="no_metrics", description="d")

    def test_protocol_factory_is_not_a_field(self):
        # Every point runs the paper's protocol; there is nothing to swap.
        with pytest.raises(TypeError, match="protocol_factory"):
            make_spec(protocol_factory=lambda params: None)

    def test_id_defaults_to_name(self):
        assert make_spec().id == "test_spec"
        assert make_spec(experiment_id="other").id == "other"

    def test_description_for_prefers_describe(self):
        spec = make_spec(describe=lambda preset: f"at {preset.parallel_time}")
        assert spec.description_for(tiny_preset()) == "at 40"
        assert make_spec().description_for(tiny_preset()) == "test"

    def test_with_overrides(self):
        spec = make_spec().with_overrides(keep_series=True)
        assert spec.keep_series is True
        assert spec.name == "test_spec"

    def test_default_points_one_per_size(self):
        from repro.core.params import empirical_parameters

        preset = tiny_preset(population_sizes=(10, 20))
        points = default_points(preset, empirical_parameters())
        assert [p.n for p in points] == [10, 20]
        assert [p.seed for p in points] == [preset.seed + 10, preset.seed + 20]
        assert all(p.trials == preset.trials for p in points)


class TestRegistry:
    def test_builtin_catalog_registered(self):
        names = scenario_names()
        for expected in (
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "convergence",
            "holding",
            "memory",
            "phase_clock",
            "baseline",
            "oscillate",
            "boom_bust",
            "churn",
            "repeated_decimation",
        ):
            assert expected in names

    def test_register_and_duplicate_rejection(self):
        spec = make_spec(name="registry_duplicate_check")
        try:
            register(spec)
            assert has_scenario("registry_duplicate_check")
            with pytest.raises(ConfigurationError):
                register(spec)
            replacement = spec.with_overrides(description="other")
            register(replacement, replace=True)
            assert get_scenario("registry_duplicate_check").description == "other"
        finally:
            unregister("registry_duplicate_check")
        assert not has_scenario("registry_duplicate_check")

    def test_scenario_decorator_registers_and_rebinds(self):
        try:

            @scenario
            def decorator_check():
                return make_spec(name="decorator_check")

            assert isinstance(decorator_check, ScenarioSpec)
            assert has_scenario("decorator_check")
        finally:
            unregister("decorator_check")

    def test_decorator_rejects_non_spec(self):
        with pytest.raises(ConfigurationError):

            @scenario
            def bad_builder():
                return 42

    def test_unknown_scenario_error_lists_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_scenario("nonexistent")
        assert "fig2" in str(excinfo.value)


class TestRunScenario:
    def test_runs_custom_spec_with_explicit_preset(self):
        result = run_scenario(make_spec(keep_series=True), preset=tiny_preset())
        assert isinstance(result, ExperimentResult)
        assert result.experiment == "test_spec"
        assert result.rows == [{"n": 80, "snapshots": 40}]
        assert "n_80" in result.series
        assert result.metadata["scenario"] == "test_spec"

    def test_auto_engine_selection_small_n_uses_the_stacked_engines(self):
        # n=80 has no tier of its own: 2 trials -> ensemble, 1 -> batched.
        result = run_scenario(make_spec(), preset=tiny_preset())
        assert result.metadata["engine"] == "ensemble"
        single = run_scenario(make_spec(), preset=tiny_preset(trials=1))
        assert single.metadata["engine"] == "batched"

    def test_auto_engine_selection_large_n_multi_trial_is_ensemble(self):
        result = run_scenario(
            make_spec(), preset=tiny_preset(population_sizes=(300,), parallel_time=20)
        )
        assert result.metadata["engine"] == "ensemble"

    def test_pinned_engine_used_by_default_and_auto_overrides(self):
        spec = make_spec(engine="batched")
        pinned = run_scenario(spec, preset=tiny_preset())
        assert pinned.metadata["engine"] == "batched"
        auto = run_scenario(
            spec, preset=tiny_preset(), options=ExecutionOptions(engine="auto")
        )
        assert auto.metadata["engine"] == "ensemble"

    @pytest.mark.parametrize("unknown", ("warp", "array"))
    def test_unknown_engine_rejected_before_work(self, unknown):
        with pytest.raises(ConfigurationError) as excinfo:
            run_scenario(
                make_spec(),
                preset=tiny_preset(),
                options=ExecutionOptions(engine=unknown),
            )
        assert "auto" in str(excinfo.value)

    def test_unsupported_engine_rejected_before_work(self):
        spec = make_spec(engines=("sequential",), engine="sequential")
        with pytest.raises(UnsupportedEngineError):
            run_scenario(
                spec, preset=tiny_preset(), options=ExecutionOptions(engine="batched")
            )

    def test_missing_presets_give_one_line_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            run_scenario(make_spec(), effort="quick")
        assert "no presets" in str(excinfo.value)

    def test_unknown_effort_gives_one_line_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            run_scenario("fig2", effort="gigantic")
        assert "gigantic" in str(excinfo.value)

    def test_empty_point_expansion_rejected(self):
        spec = make_spec(points=lambda preset, params: ())
        with pytest.raises(ConfigurationError):
            run_scenario(spec, preset=tiny_preset())

    def test_executor_receives_resolved_engine(self):
        seen = {}

        def executor(spec, preset, params, engine):
            seen["engine"] = engine
            return ExperimentResult(
                experiment=spec.id, description="d", rows=[{"ok": True}]
            )

        spec = ScenarioSpec(
            name="executor_check",
            description="d",
            executor=executor,
            engines=("sequential",),
            engine="sequential",
        )
        result = run_scenario(spec, preset=tiny_preset())
        assert seen["engine"] == "sequential"
        assert result.rows == [{"ok": True}]

    def test_metrics_merge_in_order(self):
        def first(trace, point, preset, params):
            return {"a": 1, "shared": "first"}

        def second(trace, point, preset, params):
            return {"shared": "second", "b": 2}

        spec = make_spec(metrics=(first, second))
        result = run_scenario(spec, preset=tiny_preset())
        assert result.rows[0] == {"a": 1, "shared": "second", "b": 2}

    def test_resize_schedule_applied(self):
        spec = make_spec(
            points=lambda preset, params: (
                ScenarioPoint(
                    n=80,
                    seed=preset.seed,
                    parallel_time=preset.parallel_time,
                    trials=1,
                    resize_schedule=((10, 20),),
                ),
            ),
            metrics=(
                lambda trace, point, preset, params: {
                    "final_size": trace.population_size[-1]
                },
            ),
        )
        result = run_scenario(spec, preset=tiny_preset())
        assert result.rows[0]["final_size"] == 20


class TestSweep:
    def test_from_mapping_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_mapping("fig2", {})
        with pytest.raises(ConfigurationError):
            SweepSpec.from_mapping("fig2", {"keep": ()})

    def test_combinations_grid_order(self):
        # An unregistered scenario name skips axis-key validation, so the
        # grid expansion can be pinned with abstract axes.
        sweep = SweepSpec.from_mapping("not_registered", {"a": (1, 2), "b": (3,)})
        assert sweep.combinations() == [{"a": 1, "b": 3}, {"a": 2, "b": 3}]

    def test_from_mapping_rejects_unknown_axes(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            SweepSpec.from_mapping("fig2", {"definitely_not_an_axis": (1,)})
        # The error enumerates the valid axes so the fix is obvious.
        with pytest.raises(ConfigurationError, match="valid axes"):
            SweepSpec.from_mapping("fig4", {"kep": (50,)})
        # Known preset fields, protocol constants and workload knobs pass.
        sweep = SweepSpec.from_mapping("fig4", {"keep": (50, 100), "drop_time": (200,)})
        assert len(sweep.combinations()) == 2

    def test_axis_override_routing(self):
        preset = tiny_preset()
        updated = apply_axis_overrides(
            preset, {"n": 500, "trials": 4, "tau1": 8.0, "keep": 25}
        )
        assert updated.population_sizes == (500,)
        assert updated.trials == 4
        assert updated.extra["params_overrides"] == {"tau1": 8.0}
        assert updated.extra["keep"] == 25
        # The base preset is untouched (frozen semantics).
        assert preset.population_sizes == (80,)

    def test_run_sweep_labels_and_params(self):
        sweep = SweepSpec.from_mapping("test_sweep_scenario", {"grv_samples": (4, 8)})
        spec = make_spec(name="test_sweep_scenario")
        try:
            register(spec)
            results = run_sweep(sweep, preset=tiny_preset())
        finally:
            unregister("test_sweep_scenario")
        assert [label for label, _ in results] == ["grv_samples=4", "grv_samples=8"]
        assert [r.metadata["params"]["grv_samples"] for _, r in results] == [4, 8]
        assert [r.metadata["sweep"] for _, r in results] == [
            "grv_samples=4",
            "grv_samples=8",
        ]

    def test_sweeping_k_rederives_grv_samples(self):
        sweep = SweepSpec.from_mapping("fig3", {"k": (4,)})
        results = run_sweep(sweep, preset=tiny_preset())
        params = results[0][1].metadata["params"]
        assert params["k"] == 4
        assert params["grv_samples"] == 4  # Algorithm 3 default: one per k

    def test_run_sweep_fails_fast_on_bad_params(self):
        # tau1 below tau2 violates the protocol constraints; the grid is
        # validated before any simulation runs.
        sweep = SweepSpec.from_mapping("fig3", {"tau1": (0.1,)})
        with pytest.raises(ConfigurationError):
            run_sweep(sweep, preset=tiny_preset())


class TestSchedules:
    def test_oscillation_alternates(self):
        pairs = schedules.oscillation(100, low=10, period=5, horizon=22)
        assert pairs == ((5, 10), (10, 100), (15, 10), (20, 100))

    def test_oscillation_validation(self):
        with pytest.raises(InvalidScheduleError):
            schedules.oscillation(100, low=1, period=5, horizon=20)
        with pytest.raises(InvalidScheduleError):
            schedules.oscillation(100, low=100, period=5, horizon=20)
        with pytest.raises(InvalidScheduleError):
            schedules.oscillation(100, low=10, period=0, horizon=20)

    def test_growth_crash_shape(self):
        pairs = schedules.growth_crash(
            100, growth_steps=3, period=10, crash_target=10, horizon=100
        )
        assert pairs == ((10, 200), (20, 400), (30, 800), (40, 10))

    def test_growth_crash_validation(self):
        with pytest.raises(InvalidScheduleError):
            schedules.growth_crash(
                100, growth_factor=1.0, growth_steps=2, period=10, crash_target=10, horizon=100
            )
        with pytest.raises(InvalidScheduleError):
            schedules.growth_crash(
                100, growth_steps=2, period=10, crash_target=1, horizon=100
            )

    def test_random_churn_deterministic_and_bounded(self):
        a = schedules.random_churn(100, low=10, high=50, period=5, horizon=60, seed=3)
        b = schedules.random_churn(100, low=10, high=50, period=5, horizon=60, seed=3)
        c = schedules.random_churn(100, low=10, high=50, period=5, horizon=60, seed=4)
        assert a == b
        assert a != c
        assert len(a) == 11
        assert all(10 <= target <= 50 for _, target in a)

    def test_repeated_decimation_halves_to_floor(self):
        pairs = schedules.repeated_decimation(
            1000, period=10, horizon=200, floor=100
        )
        assert pairs == ((10, 500), (20, 250), (30, 125), (40, 100))

    def test_merge_schedules(self):
        merged = schedules.merge_schedules(((10, 5),), ((5, 20),))
        assert merged == ((5, 20), (10, 5))
        with pytest.raises(InvalidScheduleError):
            schedules.merge_schedules(((10, 5),), ((10, 20),))


class TestMetrics:
    def _trace(self):
        from repro.experiments.figures import EstimateTrace

        return EstimateTrace(
            n=64,
            trials=1,
            parallel_time=[1.0, 2.0, 3.0, 4.0],
            population_size=[64.0, 64.0, 16.0, 16.0],
            minimum=[1.0, 5.0, 5.0, 5.0],
            median=[2.0, 6.0, 6.0, 5.0],
            maximum=[3.0, 8.0, 8.0, 8.0],
        )

    def _point(self, **overrides):
        data = dict(n=64, seed=0, parallel_time=4, trials=1)
        data.update(overrides)
        return ScenarioPoint(**data)

    def test_base_fields(self):
        from repro.core.params import empirical_parameters

        row = base_fields(self._trace(), self._point(), tiny_preset(), empirical_parameters())
        assert row == {"n": 64, "log2_n": 6.0, "trials": 1, "parallel_time": 4}

    def test_steady_window_stats(self):
        from repro.core.params import empirical_parameters

        row = steady_window_stats(
            self._trace(), self._point(), tiny_preset(), empirical_parameters()
        )
        assert row == {
            "steady_minimum": 5.0,
            "steady_median": 6.0,
            "steady_maximum": 8.0,
        }

    def test_tracking_stats_uses_moving_target(self):
        from repro.core.params import empirical_parameters

        params = empirical_parameters()
        row = tracking_stats(
            self._trace(), self._point(), tiny_preset(), params
        )
        offset = math.log2(params.grv_samples)
        # Second-half snapshots have size 16 -> target log2(16) + offset.
        expected = [abs(6.0 - (4.0 + offset)), abs(5.0 - (4.0 + offset))]
        assert row["mean_tracking_error"] == pytest.approx(sum(expected) / 2)
        assert row["max_tracking_error"] == pytest.approx(max(expected))
        assert row["final_population"] == 16.0
        assert row["final_target"] == pytest.approx(4.0 + offset)

    def test_schedule_fields(self):
        from repro.core.params import empirical_parameters

        point = self._point(resize_schedule=((2, 16), (3, 32)))
        row = schedule_fields(self._trace(), point, tiny_preset(), empirical_parameters())
        assert row == {
            "resize_events": 2,
            "smallest_target": 16,
            "largest_target": 32,
        }


class TestCatalogScenarios:
    @pytest.mark.parametrize(
        "name", ("oscillate", "boom_bust", "churn", "repeated_decimation")
    )
    def test_catalog_scenario_runs_and_resizes(self, name):
        preset = tiny_preset(
            population_sizes=(300,),
            parallel_time=120,
            trials=2,
            extra={"period": 30},
        )
        result = run_scenario(name, preset=preset)
        assert result.experiment == name
        row = result.rows[0]
        assert row["resize_events"] >= 1
        assert row["n"] == 300
        assert row["final_median"] > 0
        assert "n_300" in result.series
        # The adversary really changed the population at some point.
        sizes = set(result.series["n_300"]["population_size"])
        assert len(sizes) > 1

    def test_oscillate_follows_schedule(self):
        preset = tiny_preset(
            population_sizes=(300,), parallel_time=100, trials=1, extra={"period": 30}
        )
        result = run_scenario("oscillate", preset=preset)
        series = result.series["n_300"]
        by_time = dict(zip(series["parallel_time"], series["population_size"]))
        assert by_time[100.0] == 30  # low phase after the third flip at t=90
        assert by_time[70.0] == 300  # back at full size after the second flip

    @pytest.mark.parametrize("engine", ("sequential", "batched"))
    def test_catalog_scenarios_run_on_explicit_engines(self, engine):
        preset = tiny_preset(
            population_sizes=(60,), parallel_time=40, trials=1, extra={"period": 10}
        )
        result = run_scenario(
            "repeated_decimation",
            preset=preset,
            options=ExecutionOptions(engine=engine),
        )
        assert result.metadata["engine"] == engine

    def test_catalog_has_quick_default_paper_presets(self):
        from repro.experiments.config import PRESETS

        for name in ("oscillate", "boom_bust", "churn", "repeated_decimation"):
            assert set(PRESETS[name]) == {"quick", "default", "paper"}


class TestSweepFailFast:
    def test_bad_workload_axis_rejected_before_any_simulation(self, monkeypatch):
        """A bad knob in any grid combination aborts before the first run."""
        import repro.experiments.figures as figures

        calls = []

        def counting_trace(*args, **kwargs):
            calls.append(args)
            raise AssertionError("simulation should not have started")

        monkeypatch.setattr(figures, "run_estimate_trace", counting_trace)
        sweep = SweepSpec.from_mapping("fig4", {"keep": (40, 1), "drop_time": (5,)})
        with pytest.raises(InvalidScheduleError):
            run_sweep(sweep, preset=tiny_preset())
        assert calls == []
