"""The ExecutionOptions API: the one spelling of every execution setting.

One frozen bundle, validated in one place.  ``run_scenario`` and
``run_sweep`` take it as ``options=`` next to the ``effort``/``preset``
keywords; a flat execution keyword is a ``TypeError``, so each setting has
exactly one spelling.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.errors import ConfigurationError
from repro.engine.options import ExecutionOptions, execution_metadata, jit_status
from repro.engine.runner import run_engine_trials
from repro.experiments.base import ExperimentPreset
from repro.experiments.figures import _trace_engine_factory
from repro.scenarios.runner import run_scenario, run_sweep
from repro.scenarios.spec import SweepSpec
from repro.serve.service import RunRequest


def tiny_preset(**overrides) -> ExperimentPreset:
    data = dict(
        name="tiny", population_sizes=(80,), parallel_time=30, trials=2, seed=11
    )
    data.update(overrides)
    return ExperimentPreset(**data)


class TestValidation:
    def test_defaults_valid(self):
        opts = ExecutionOptions()
        assert opts.engine is None
        assert not opts.checkpointing

    def test_fields_are_execution_settings_only(self):
        assert [field.name for field in dataclasses.fields(ExecutionOptions)] == [
            "engine",
            "workers",
            "jit",
            "checkpoint_every",
            "checkpoint_dir",
            "resume_from",
            "interrupt_after",
        ]

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ExecutionOptions(engine="warp_drive")
        with pytest.raises(ConfigurationError):
            ExecutionOptions(workers=0)
        with pytest.raises(ConfigurationError):
            ExecutionOptions(workers=True)
        with pytest.raises(ConfigurationError):
            ExecutionOptions(jit="yes")
        with pytest.raises(ConfigurationError):
            ExecutionOptions(checkpoint_every=0, checkpoint_dir="x")
        # interrupt_after is a fault-injection knob *on* checkpointing.
        with pytest.raises(ConfigurationError):
            ExecutionOptions(interrupt_after=1)

    def test_accepts_auto_spellings(self):
        opts = ExecutionOptions(engine="auto", workers="auto")
        assert opts.engine == "auto"
        assert opts.workers == "auto"

    def test_replace_revalidates(self):
        opts = ExecutionOptions(workers=2)
        assert opts.replace(workers=4).workers == 4
        with pytest.raises(ConfigurationError):
            opts.replace(workers=-1)


class TestRunScenario:
    def test_options_select_the_engine(self):
        result = run_scenario(
            "oscillate",
            preset=tiny_preset(),
            options=ExecutionOptions(engine="batched"),
        )
        assert result.metadata["execution"]["requested_engine"] == "batched"
        assert result.metadata["execution"]["engines"] == ["batched"]

    def test_flat_execution_keywords_are_gone(self):
        with pytest.raises(TypeError):
            run_scenario("fig2", engine="batched")
        with pytest.raises(TypeError):
            run_scenario("fig2", workers=2)


class TestRunSweep:
    def test_options_accepted(self):
        sweep = SweepSpec.from_mapping("oscillate", {"n": (60, 90)})
        results = run_sweep(
            sweep, preset=tiny_preset(), options=ExecutionOptions(engine="batched")
        )
        assert [label for label, _ in results] == ["n=60", "n=90"]

    def test_flat_execution_keywords_are_gone(self):
        sweep = SweepSpec.from_mapping("oscillate", {"n": (60,)})
        with pytest.raises(TypeError):
            run_sweep(sweep, jit=True)


class TestRunEngineTrials:
    def test_takes_no_options_bundle(self):
        def factory(engine, rng, ensemble_trials):
            from repro.core.params import empirical_parameters

            return _trace_engine_factory(
                engine,
                rng,
                ensemble_trials,
                n=64,
                params=empirical_parameters(),
                resize_schedule=(),
                initial_estimate=None,
                sub_batches=4,
            )

        with pytest.raises(TypeError):
            run_engine_trials(
                factory,
                engine="batched",
                trials=2,
                seed=5,
                parallel_time=10,
                options=ExecutionOptions(),
            )


class TestRunRequest:
    def test_execution_settings_are_flat_fields_only(self):
        request = RunRequest(scenario="fig2", effort="default", engine="batched", workers=2)
        assert request.summary()["engine"] == "batched"
        assert "options" not in request.summary()
        with pytest.raises(TypeError):
            RunRequest(scenario="fig2", options=ExecutionOptions(engine="batched"))


class TestMetadataHelpers:
    def test_execution_metadata_shape(self):
        block = execution_metadata(
            requested_engine=None, engines_used=["batched", "batched"], workers=None, jit=False
        )
        assert block == {
            "requested_engine": None,
            "engine": "batched",
            "engines": ["batched"],
            "workers": None,
            "jit_requested": False,
            "jit": "off",
        }
        mixed = execution_metadata(
            requested_engine="auto",
            engines_used=["batched", "counts"],
            workers=2,
            jit=False,
        )
        assert mixed["engine"] == "mixed"
        assert mixed["engines"] == ["batched", "counts"]

    def test_jit_status_off(self):
        assert jit_status(False) == "off"
        # True resolves to "compiled" or a fallback reason, never "off".
        assert jit_status(True) != "off"


def test_scenarios_reexports_options():
    from repro.scenarios import ExecutionOptions as reexported

    assert reexported is ExecutionOptions
