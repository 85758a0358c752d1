"""Resolved execution config in result metadata (``metadata["execution"]``).

Every result records the *fully resolved* execution configuration — the
engine after ``choose_engine``, the worker count after ``resolve_workers``,
the jit outcome after the availability probe — alongside what was requested.
Cached artifacts are then self-describing: the block alone reproduces the
run without re-deriving the auto policies.  Legacy metadata keys
(``engine``, conditional ``workers``/``jit``) are pinned elsewhere
(tests/test_parallel.py, tests/test_scenarios.py) and must not change.
"""

from __future__ import annotations

from repro.engine.options import ExecutionOptions
from repro.engine.parallel import resolve_workers
from repro.engine.registry import choose_engine
from repro.experiments.base import ExperimentPreset
from repro.scenarios.runner import run_scenario, run_sweep
from repro.scenarios.spec import ScenarioSpec, SweepSpec


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
        "jit_requested",
        "jit",
    }
    return execution


class TestEngineResolution:
    def test_engine_none_records_auto_choice(self):
        # n=80 <= the small-population threshold -> choose_engine says array.
        spec, preset = make_spec(), tiny_preset()
        result = run_scenario(spec, preset=preset)
        execution = execution_of(result)
        from repro.scenarios.runner import resolve_params

        protocol = spec.protocol_factory(resolve_params(spec, preset))
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
        assert execution_of(auto)["engine"] == "array"

    def test_mixed_engines_across_points(self):
        # n=80 -> array; n=300 with trials>1 -> ensemble.
        spec = make_spec()
        result = run_scenario(
            spec, preset=tiny_preset(population_sizes=(80, 300), parallel_time=20)
        )
        execution = execution_of(result)
        assert execution["engine"] == "mixed"
        assert execution["engines"] == ["array", "ensemble"]

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


class TestJitResolution:
    def test_jit_off_by_default(self):
        result = run_scenario(make_spec(), preset=tiny_preset())
        execution = execution_of(result)
        assert execution["jit_requested"] is False
        assert execution["jit"] == "off"

    def test_jit_request_records_availability_outcome(self):
        from repro.kernels import availability

        result = run_scenario(
            make_spec(), preset=tiny_preset(), options=ExecutionOptions(jit=True)
        )
        execution = execution_of(result)
        assert execution["jit_requested"] is True
        if availability().enabled:
            assert execution["jit"] == "compiled"
        else:
            assert execution["jit"].startswith("fallback: ")


class TestBespokeExecutor:
    def test_bespoke_scenario_records_serial_execution(self):
        # The memory table runs through a bespoke recorder executor: it is
        # always serial and never reaches the vectorised kernels, whatever
        # was requested.
        result = run_scenario(
            "memory", options=ExecutionOptions(workers="auto", jit=True)
        )
        execution = execution_of(result)
        assert execution["engine"] == "sequential"
        assert execution["workers"] is None
        assert execution["workers_requested"] == "auto"
        assert execution["jit"] == "off"
        assert execution["jit_requested"] is True


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
