"""Resolved execution config in result metadata (``metadata["execution"]``).

Every result records the *fully resolved* execution configuration — the
engine after ``choose_engine``, the worker count after ``resolve_workers``
— alongside what was requested.  Cached artifacts are then
self-describing: the block alone reproduces the run without re-deriving the
auto policies.  Legacy metadata keys (``engine``, conditional ``workers``)
are pinned elsewhere (tests/test_parallel.py, tests/test_scenarios.py) and
must not change.
"""

from __future__ import annotations

import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.errors import ConfigurationError
from repro.engine.options import ExecutionOptions
from repro.engine.parallel import resolve_workers
from repro.engine.registry import choose_engine
from repro.experiments.base import ExperimentPreset
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import run_scenario, run_sweep, validate_executor_options
from repro.scenarios.spec import ScenarioPoint, ScenarioSpec, SweepSpec


def count_metric(trace, point, preset, params):
    return {"n": point.n, "trials": point.trials}


def make_spec(**overrides) -> ScenarioSpec:
    data = dict(
        name="exec_meta_spec",
        description="execution metadata probe",
        metrics=(count_metric,),
    )
    data.update(overrides)
    return ScenarioSpec(**data)


def tiny_preset(**overrides) -> ExperimentPreset:
    data = dict(
        name="tiny", population_sizes=(80,), parallel_time=30, trials=2, seed=7
    )
    data.update(overrides)
    return ExperimentPreset(**data)


def execution_of(result):
    execution = result.metadata["execution"]
    # The block has a fixed shape — new fields are a conscious decision.
    assert set(execution) >= {
        "requested_engine",
        "engine",
        "engines",
        "workers",
        "workers_requested",
    }
    return execution


class TestEngineResolution:
    def test_engine_none_records_auto_choice(self):
        # n=80 with 2 trials -> choose_engine says ensemble.
        spec, preset = make_spec(), tiny_preset()
        result = run_scenario(spec, preset=preset)
        execution = execution_of(result)
        from repro.scenarios.runner import resolve_params

        protocol = DynamicSizeCounting(resolve_params(spec, preset))
        assert execution["requested_engine"] is None
        assert execution["engine"] == choose_engine(protocol, preset.trials, 80)
        assert execution["engines"] == [execution["engine"]]

    def test_engine_auto_same_resolution_as_none_for_unpinned_spec(self):
        spec, preset = make_spec(), tiny_preset()
        auto = run_scenario(
            spec, preset=preset, options=ExecutionOptions(engine="auto")
        )
        default = run_scenario(spec, preset=preset)
        assert execution_of(auto)["engine"] == execution_of(default)["engine"]
        assert execution_of(auto)["requested_engine"] == "auto"

    def test_pinned_spec_auto_overrides_pin(self):
        pinned = make_spec(engine="batched")
        result = run_scenario(pinned, preset=tiny_preset())
        assert execution_of(result)["engine"] == "batched"
        # "auto" re-enables per-point choice even against the pin.
        auto = run_scenario(
            pinned, preset=tiny_preset(), options=ExecutionOptions(engine="auto")
        )
        assert execution_of(auto)["engine"] == "ensemble"

    def test_mixed_engines_across_points(self):
        # One trial -> batched; two trials -> ensemble.
        def points(preset, params):
            return tuple(
                ScenarioPoint(n=n, seed=preset.seed + n, parallel_time=20, trials=trials)
                for n, trials in ((80, 1), (300, 2))
            )

        result = run_scenario(make_spec(points=points), preset=tiny_preset())
        execution = execution_of(result)
        assert execution["engine"] == "mixed"
        assert execution["engines"] == ["batched", "ensemble"]

    def test_explicit_engine_is_recorded_verbatim(self):
        result = run_scenario(
            make_spec(),
            preset=tiny_preset(),
            options=ExecutionOptions(engine="batched"),
        )
        execution = execution_of(result)
        assert execution["requested_engine"] == "batched"
        assert execution["engine"] == "batched"


class TestWorkersResolution:
    def test_serial_records_none_and_keeps_legacy_keys_absent(self):
        result = run_scenario(make_spec(), preset=tiny_preset())
        execution = execution_of(result)
        assert execution["workers"] is None
        assert execution["workers_requested"] is None
        assert "workers" not in result.metadata  # legacy contract

    def test_workers_auto_records_resolved_count(self):
        result = run_scenario(
            make_spec(), preset=tiny_preset(), options=ExecutionOptions(workers="auto")
        )
        execution = execution_of(result)
        assert execution["workers_requested"] == "auto"
        assert execution["workers"] == resolve_workers("auto")
        assert result.metadata["workers"] == execution["workers"]  # legacy key

    def test_explicit_workers_recorded(self):
        result = run_scenario(
            make_spec(), preset=tiny_preset(), options=ExecutionOptions(workers=2)
        )
        execution = execution_of(result)
        assert execution["workers_requested"] == 2
        assert execution["workers"] == 2


class TestNoKernelBackendChoice:
    # Every protocol runs on its NumPy kernels: there is no backend to
    # request, so no result records one.
    def test_metadata_records_no_jit_keys(self):
        result = run_scenario(make_spec(), preset=tiny_preset())
        assert not {"jit", "jit_requested"} & set(execution_of(result))
        assert "jit" not in result.metadata


class TestBespokeExecutor:
    def test_bespoke_scenario_records_serial_execution(self):
        # The memory table runs through a bespoke recorder executor: it is
        # always serial and never checkpoints, so it rejects a request for
        # either instead of ignoring it.
        with pytest.raises(ConfigurationError, match="workers, checkpoint_dir$"):
            run_scenario(
                "memory", options=ExecutionOptions(workers="auto", checkpoint_dir="ckpt")
            )

    @pytest.mark.parametrize(
        "setting",
        [
            {"workers": 2},
            {"checkpoint_every": 5},
            {"checkpoint_dir": "ckpt"},
            {"resume_from": "ckpt"},
            {"checkpoint_every": 5, "interrupt_after": 1},
        ],
        ids=lambda setting: list(setting)[-1],
    )
    def test_each_unhonourable_setting_is_rejected_before_any_work(self, setting):
        ran = []

        def executor(spec, preset, params, engine):
            ran.append(spec.name)
            raise AssertionError("a rejected run must not start")

        spec = make_spec(executor=executor, engines=("sequential",), engine="sequential")
        with pytest.raises(ConfigurationError, match=f"cannot honour .*{list(setting)[-1]}"):
            run_scenario(spec, preset=tiny_preset(), options=ExecutionOptions(**setting))
        assert ran == []

    @pytest.mark.parametrize("name", ["memory", "phase_clock", "baseline"])
    def test_every_bespoke_scenario_rejects_workers(self, name):
        assert get_scenario(name).executor is not None
        with pytest.raises(ConfigurationError, match=f"scenario {name!r} runs serially"):
            run_scenario(name, options=ExecutionOptions(workers=2))

    def test_specs_without_an_executor_accept_every_setting(self):
        options = ExecutionOptions(
            workers=2, checkpoint_every=5, checkpoint_dir="ckpt", interrupt_after=1
        )
        validate_executor_options(make_spec(), options)

    def test_sweep_of_several_combinations_fans_serial_runs_out(self):
        sweep = SweepSpec.from_mapping("memory", {"n": (40, 50)})
        results = run_sweep(
            sweep,
            preset=tiny_preset(parallel_time=15, trials=1),
            options=ExecutionOptions(workers=2),
        )
        assert [label for label, _ in results] == ["n=40", "n=50"]
        for _, result in results:
            execution = execution_of(result)
            assert execution["engine"] == "sequential"
            assert execution["workers"] is None
            assert execution["sweep_workers"] == 2

    @pytest.mark.parametrize("name", ["memory", "phase_clock", "baseline"])
    def test_sweep_of_one_combination_rejects_workers(self, name, monkeypatch):
        import repro.scenarios.runner as runner

        def must_not_run(*args, **kwargs):
            raise AssertionError("a rejected sweep must not start")

        monkeypatch.setattr(runner, "run_scenario", must_not_run)
        sweep = SweepSpec.from_mapping(name, {"n": (40,)})
        with pytest.raises(ConfigurationError, match="cannot honour workers$"):
            run_sweep(sweep, preset=tiny_preset(), options=ExecutionOptions(workers=2))

    def test_sweep_of_several_combinations_still_rejects_checkpointing(self):
        sweep = SweepSpec.from_mapping("memory", {"n": (40, 50)})
        with pytest.raises(ConfigurationError, match="cannot honour checkpoint_dir$"):
            run_sweep(
                sweep,
                preset=tiny_preset(),
                options=ExecutionOptions(workers=2, checkpoint_dir="ckpt"),
            )

    @pytest.mark.parametrize("combinations", [1, 2, 5])
    def test_workers_are_honoured_only_by_several_combinations(self, combinations):
        spec = get_scenario("memory")
        options = ExecutionOptions(workers=2)
        if combinations == 1:
            with pytest.raises(ConfigurationError, match="cannot honour workers$"):
                validate_executor_options(spec, options, combinations=combinations)
        else:
            validate_executor_options(spec, options, combinations=combinations)


class TestSweepMetadata:
    def test_serial_sweep_results_carry_execution_blocks(self):
        sweep = SweepSpec.from_mapping(make_spec(), {"n": (64, 80)})
        results = run_sweep(sweep, preset=tiny_preset(parallel_time=20))
        assert len(results) == 2
        for _, result in results:
            execution = execution_of(result)
            assert "sweep_workers" not in execution

    def test_parallel_sweep_records_sweep_workers(self):
        sweep = SweepSpec.from_mapping(make_spec(), {"n": (64, 80)})
        results = run_sweep(
            sweep,
            preset=tiny_preset(parallel_time=20),
            options=ExecutionOptions(workers=2),
        )
        for _, result in results:
            execution = execution_of(result)
            assert execution["sweep_workers"] == 2
            # Each combination ran serially inside its worker.
            assert execution["workers"] is None
