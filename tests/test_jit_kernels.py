"""Compiled kernel backend: bit-parity, dispatch, availability, fallback.

The parity tests run every protocol with a jit wrapper against the plain
NumPy kernels on a shared seed and assert the *entire* engine state is
equal element for element — not statistically close: the jit kernels are
drop-in replacements, so any divergence is a bug.

Three wrapper modes are exercised:

* ``fallback`` — ``REPRO_DISABLE_JIT`` forces :func:`kernel_table` to
  ``None``, so the wrappers delegate to ``super()`` (the NumPy kernels);
* ``interpreted`` — :func:`use_kernel_table` injects the *uncompiled*
  Python loop kernels, so the kernel logic itself executes (slowly) even
  on machines without numba;
* ``compiled`` — the real ``njit`` table, when numba is importable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.phase_clock import UniformPhaseClock
from repro.engine.errors import ConfigurationError
from repro.engine.options import ExecutionOptions
from repro.engine.registry import engine_info, make_engine
from repro.kernels import (
    availability,
    compile_warmup,
    has_jit_kernel,
    jit_kernel_for,
    jit_wrap,
    register_jit_kernel,
    registered_jit_protocols,
)
from repro.kernels.availability import DISABLE_ENV
from repro.kernels.jit import (
    JitVectorizedDynamicCounting,
    kernel_table,
    python_kernels,
    use_kernel_table,
)
from repro.protocols.epidemic import InfectionEpidemic, MaxEpidemic
from repro.protocols.junta import JuntaElection
from repro.protocols.majority import ApproximateMajority

PROTOCOLS = (
    DynamicSizeCounting,
    MaxEpidemic,
    InfectionEpidemic,
    JuntaElection,
    ApproximateMajority,
)

MODES = ["fallback", "interpreted"]
if availability().enabled:
    MODES.append("compiled")


def _engine_kwargs(engine):
    return {"trials": 3} if engine == "ensemble" else {}


def _run_pair(protocol_cls, engine, mode, monkeypatch, *, n=300, steps=40, **kw):
    """Run the NumPy reference and a jit wrapper on a shared seed."""
    kwargs = {**_engine_kwargs(engine), **kw}
    ref = make_engine(engine, protocol_cls(), n, seed=11, **kwargs)
    ref.run(steps)

    wrapper = jit_kernel_for(protocol_cls())
    if mode == "fallback":
        monkeypatch.setenv(DISABLE_ENV, "1")
        assert kernel_table() is None
        jit_engine = make_engine(engine, wrapper, n, seed=11, **kwargs)
        jit_engine.run(steps)
    elif mode == "interpreted":
        with use_kernel_table(python_kernels()):
            jit_engine = make_engine(engine, wrapper, n, seed=11, **kwargs)
            jit_engine.run(steps)
    else:  # compiled
        monkeypatch.delenv(DISABLE_ENV, raising=False)
        assert kernel_table() is not None
        jit_engine = make_engine(engine, wrapper, n, seed=11, **kwargs)
        jit_engine.run(steps)
    return ref, jit_engine


def _assert_state_equal(ref, jit_engine, context):
    assert set(ref.arrays) == set(jit_engine.arrays), context
    for key in ref.arrays:
        expected = ref.arrays[key]
        actual = jit_engine.arrays[key]
        assert expected.dtype == actual.dtype, (context, key)
        assert np.array_equal(expected, actual), (context, key)


class TestBitParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("engine", ["batched", "ensemble"])
    @pytest.mark.parametrize("protocol_cls", PROTOCOLS, ids=lambda c: c.__name__)
    def test_jit_matches_numpy_exactly(self, protocol_cls, engine, mode, monkeypatch):
        ref, jit_engine = _run_pair(protocol_cls, engine, mode, monkeypatch)
        _assert_state_equal(ref, jit_engine, (protocol_cls.__name__, engine, mode))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("engine", ["batched", "ensemble"])
    def test_parity_through_resize_mid_run(self, engine, mode, monkeypatch):
        # The adversary halves and then grows the population mid-run; the
        # jit kernels only see per-batch arrays, so parity must survive
        # lane-count changes and state re-initialisation.
        schedule = ((10, 150), (25, 400))
        ref, jit_engine = _run_pair(
            DynamicSizeCounting,
            engine,
            mode,
            monkeypatch,
            steps=45,
            resize_schedule=schedule,
        )
        _assert_state_equal(ref, jit_engine, ("resize", engine, mode))

    def test_ensemble_counting_exercises_float32_planes(self):
        # The ensemble counting parity above is only meaningful if the
        # compact float32 planes are what actually ran.
        engine = make_engine(
            "ensemble", jit_kernel_for(DynamicSizeCounting()), 300, seed=3, trials=2
        )
        assert engine.arrays["max"].dtype == np.float32

    @pytest.mark.parametrize("mode", MODES)
    def test_parity_on_float64_ensemble_planes(self, mode, monkeypatch):
        # Theory-scale constants disable the float32 planes; the ensemble
        # kernels must stay bit-exact on the float64 layout too.
        from repro.core.params import theory_parameters

        params = theory_parameters()

        class BigTau(DynamicSizeCounting):
            def __init__(self):
                super().__init__(params)

        probe = jit_kernel_for(BigTau())
        assert probe.ensemble_state_dtypes is None
        ref, jit_engine = _run_pair(BigTau, "ensemble", mode, monkeypatch)
        assert jit_engine.arrays["max"].dtype == np.float64
        _assert_state_equal(ref, jit_engine, ("float64-planes", mode))


class TestDispatch:
    def test_registered_protocols_cover_scalar_and_vectorized(self):
        names = registered_jit_protocols()
        for expected in (
            "DynamicSizeCounting",
            "UniformPhaseClock",
            "VectorizedDynamicCounting",
            "MaxEpidemic",
            "VectorizedMaxEpidemic",
            "InfectionEpidemic",
            "JuntaElection",
            "ApproximateMajority",
        ):
            assert expected in names

    def test_jit_kernel_for_is_idempotent(self):
        wrapper = jit_kernel_for(DynamicSizeCounting())
        assert jit_kernel_for(wrapper) is wrapper
        assert jit_wrap(wrapper) is wrapper

    def test_phase_clock_maps_to_counting_wrapper(self):
        assert isinstance(
            jit_kernel_for(UniformPhaseClock()), JitVectorizedDynamicCounting
        )

    def test_unregistered_protocol_raises(self):
        class Mystery:
            pass

        assert not has_jit_kernel(Mystery())
        with pytest.raises(ConfigurationError, match="no jit kernel registered"):
            jit_kernel_for(Mystery())

    def test_register_jit_kernel_walks_the_mro(self):
        class Marker:
            pass

        class Child(Marker):
            pass

        sentinel = jit_kernel_for(DynamicSizeCounting())
        register_jit_kernel(Marker, lambda p: sentinel)
        try:
            assert has_jit_kernel(Child())
            assert jit_kernel_for(Child()) is sentinel
        finally:
            from repro.kernels import _JIT_REGISTRY

            _JIT_REGISTRY.pop(Marker, None)

    def test_jit_wrap_returns_original_when_unavailable(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        from repro.protocols.vectorized import VectorizedMaxEpidemic

        protocol = VectorizedMaxEpidemic(1, True)
        assert jit_wrap(protocol) is protocol

    def test_jit_wrap_passes_through_unregistered_protocols(self):
        class Mystery:
            pass

        protocol = Mystery()
        assert jit_wrap(protocol) is protocol


class TestAvailability:
    def test_disable_env_wins(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        status = availability()
        assert not status.enabled
        assert DISABLE_ENV in status.reason
        assert kernel_table() is None

    def test_disable_env_zero_means_enabled_probe(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "0")
        status = availability()
        # "0" does not disable; the outcome is whatever the import probe says.
        assert status.enabled == (status.numba_version is not None)

    def test_fallback_is_logged_once_per_reason(self, monkeypatch, caplog):
        import sys

        # The package re-exports the probe *function* under the submodule's
        # name (`repro.kernels.availability()` is the documented API), so
        # the module object must come from sys.modules.
        avail_mod = sys.modules["repro.kernels.availability"]
        monkeypatch.setenv(DISABLE_ENV, "for-this-test")
        monkeypatch.setattr(avail_mod, "_LOGGED_REASONS", set())
        with caplog.at_level("INFO", logger="repro.kernels"):
            availability()
            availability()
        messages = [
            record
            for record in caplog.records
            if "compiled kernels disabled" in record.getMessage()
        ]
        assert len(messages) == 1

    def test_engine_run_with_jit_true_falls_back(self, monkeypatch):
        # The headline satellite case: jit=True on a numba-less machine (or
        # with the kill switch set) must run and produce the NumPy results.
        monkeypatch.setenv(DISABLE_ENV, "1")
        ref = make_engine("batched", DynamicSizeCounting(), 256, seed=5)
        ref.run(20)
        via_jit = make_engine("batched", DynamicSizeCounting(), 256, seed=5, jit=True)
        via_jit.run(20)
        _assert_state_equal(ref, via_jit, "jit=True fallback")


class TestEngineWiring:
    def test_supports_jit_flags(self):
        assert engine_info("batched").supports_jit
        assert engine_info("ensemble").supports_jit
        for name in ("sequential", "counts"):
            assert not engine_info(name).supports_jit

    @pytest.mark.parametrize("engine", ["sequential", "counts"])
    def test_make_engine_rejects_jit_on_unsupported_engines(self, engine):
        with pytest.raises(ConfigurationError, match="jit"):
            make_engine(engine, DynamicSizeCounting(), 1000, seed=1, jit=True)

    def test_run_scenario_records_jit_metadata(self):
        from repro.scenarios.runner import run_scenario

        result = run_scenario(
            "fig3", effort="quick", options=ExecutionOptions(jit=True)
        )
        assert "jit" in result.metadata
        expected = "compiled" if availability().enabled else "fallback"
        assert result.metadata["jit"].startswith(expected)

    def test_compile_warmup_smoke(self):
        seconds = compile_warmup()
        assert seconds >= 0.0
        if not availability().enabled:
            assert seconds < 1.0  # no-op path: probe only, no engine runs
