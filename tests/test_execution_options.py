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
from repro.engine.options import ExecutionOptions, execution_metadata
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
            run_sweep(sweep, workers=2)


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
            requested_engine=None, engines_used=["batched", "batched"], workers=None
        )
        assert block == {
            "requested_engine": None,
            "engine": "batched",
            "engines": ["batched"],
            "workers": None,
        }
        mixed = execution_metadata(
            requested_engine="auto", engines_used=["batched", "counts"], workers=2
        )
        assert mixed["engine"] == "mixed"
        assert mixed["engines"] == ["batched", "counts"]


def test_scenarios_reexports_options():
    from repro.scenarios import ExecutionOptions as reexported

    assert reexported is ExecutionOptions


def _run_request(**kwargs):
    return RunRequest(scenario="fig2", **kwargs)


def _estimate_trace(**kwargs):
    from repro.experiments.figures import run_estimate_trace

    return run_estimate_trace(64, 10, trials=2, seed=1, **kwargs)


def _cache_key(**kwargs):
    from repro.serve.keys import canonical_cache_key

    return canonical_cache_key("fig2", tiny_preset(), **kwargs)


def _run_encoding(**kwargs):
    from repro.serve.keys import run_encoding

    return run_encoding("fig2", tiny_preset(), **kwargs)


def _metadata(**kwargs):
    return execution_metadata(
        requested_engine=None, engines_used=["batched"], workers=None, **kwargs
    )


def _trace_factory(**kwargs):
    from repro.core.params import empirical_parameters
    from repro.engine.rng import RandomSource

    return _trace_engine_factory(
        "batched",
        RandomSource.from_seed(1),
        None,
        n=64,
        params=empirical_parameters(),
        resize_schedule=(),
        initial_estimate=None,
        sub_batches=4,
        **kwargs,
    )


def _engine_info(**kwargs):
    from repro.engine.registry import EngineInfo, make_engine

    return EngineInfo(name="probe", builder=make_engine, **kwargs)


class TestRemovedSpellings:
    """The compiled backend's knobs fail loudly at every layer, never drop silently."""

    @pytest.mark.parametrize(
        ("call", "keyword"),
        [
            (ExecutionOptions, "jit"),
            (_run_request, "jit"),
            (_estimate_trace, "jit"),
            (_cache_key, "jit"),
            (_run_encoding, "jit"),
            (_metadata, "jit"),
            (_trace_factory, "jit"),
            (_engine_info, "supports_jit"),
            (_engine_info, "supports_checkpoint"),
        ],
        ids=[
            "ExecutionOptions",
            "RunRequest",
            "run_estimate_trace",
            "canonical_cache_key",
            "run_encoding",
            "execution_metadata",
            "trace_engine_factory",
            "EngineInfo-supports_jit",
            "EngineInfo-supports_checkpoint",
        ],
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_keyword_is_a_type_error(self, call, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: value})

    @pytest.mark.parametrize(
        ("module", "name"),
        [
            ("repro.engine", "jit_status"),
            ("repro.engine.options", "jit_status"),
            ("repro.kernels", "jit_wrap"),
            ("repro.kernels", "compile_warmup"),
            ("repro.kernels", "register_jit_kernel"),
            ("repro.kernels", "DISABLE_ENV"),
        ],
    )
    def test_name_is_gone(self, module, name):
        import importlib

        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("module", ["repro.kernels.jit", "repro.kernels.availability"])
    def test_module_is_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
