"""Tests for the engine registry, engine selection, and the unified API."""

from __future__ import annotations

import numpy as np
import pytest
from max_epidemic import MaxEpidemicCountsKernel

import repro.protocols as toolbox
from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.phase_clock import UniformPhaseClock
from repro.core.params import ProtocolParameters
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.api import RunResult
from repro.engine.ensemble_engine import EnsembleSimulator
from repro.engine.errors import ConfigurationError
from repro.engine.protocol import Protocol
from repro.engine.recorder import EstimateRecorder
from repro.engine.registry import (
    ENGINE_NAMES,
    LARGE_POPULATION_THRESHOLD,
    choose_engine,
    has_vectorized,
    make_engine,
    register_vectorized,
    registered_protocols,
    vectorized_for,
)
from repro.engine.simulator import Simulator
from repro.protocols.doty_eftekhari import DotyEftekhariCounting
from repro.protocols.epidemic import MaxEpidemic
from repro.protocols.majority import ApproximateMajority


def _toolbox_protocols():
    """One default instance of every protocol :mod:`repro.protocols` exports."""
    classes = [getattr(toolbox, name) for name in toolbox.__all__]
    return [
        cls(log_n_estimate=5.0) if cls is toolbox.NonUniformPhaseClock else cls()
        for cls in classes
        if isinstance(cls, type) and issubclass(cls, Protocol)
    ]


#: The toolbox: scalar rules with no vectorised or counts kernel.
TOOLBOX = pytest.mark.parametrize(
    "protocol", _toolbox_protocols(), ids=lambda protocol: protocol.name
)


class TestVectorizedLookup:
    def test_dynamic_counting_dispatch_carries_params(self):
        params = ProtocolParameters(tau1=7, tau2=5, tau3=3, tau_prime=30, grv_samples=8)
        vectorized = vectorized_for(DynamicSizeCounting(params))
        assert isinstance(vectorized, VectorizedDynamicCounting)
        assert vectorized.params is params

    def test_phase_clock_dispatches_to_counting_kernel(self):
        vectorized = vectorized_for(UniformPhaseClock())
        assert isinstance(vectorized, VectorizedDynamicCounting)

    def test_vectorized_protocol_passes_through(self):
        protocol = VectorizedDynamicCounting()
        assert vectorized_for(protocol) is protocol
        assert has_vectorized(protocol)

    def test_unknown_protocol_raises_with_listing(self):
        with pytest.raises(ConfigurationError) as excinfo:
            vectorized_for(DotyEftekhariCounting())
        assert "DotyEftekhariCounting" in str(excinfo.value)
        assert "DynamicSizeCounting" in str(excinfo.value)
        assert not has_vectorized(DotyEftekhariCounting())

    def test_registered_protocols_lists_defaults(self):
        assert registered_protocols() == ["DynamicSizeCounting", "UniformPhaseClock"]

    @pytest.mark.parametrize("engine", ["batched", "ensemble"])
    @TOOLBOX
    def test_toolbox_protocol_is_rejected_by_the_stacked_engines(self, protocol, engine):
        # Toolbox protocols are scalar rules only: they run on sequential.
        with pytest.raises(ConfigurationError, match=type(protocol).__name__):
            make_engine(engine, protocol, 10, seed=1)
        assert not has_vectorized(protocol)

    def test_custom_registration_and_subclass_lookup(self):
        class CustomCounting(DynamicSizeCounting):
            pass

        # Subclasses resolve through the MRO to the base registration...
        vectorized = vectorized_for(CustomCounting())
        assert isinstance(vectorized, VectorizedDynamicCounting)

        # ... unless a more specific registration exists.
        class CustomVectorized(VectorizedDynamicCounting):
            pass

        register_vectorized(CustomCounting, lambda p: CustomVectorized(p.params))
        try:
            assert isinstance(vectorized_for(CustomCounting()), CustomVectorized)
        finally:
            from repro.engine import registry

            registry._REGISTRY.pop(CustomCounting, None)


class TestChooseEngine:
    def test_non_vectorizable_protocol_needs_sequential(self):
        assert choose_engine(DotyEftekhariCounting(), trials=96, n=10_000) == "sequential"

    @TOOLBOX
    def test_toolbox_protocol_runs_sequential(self, protocol):
        # At every tier: one trial, several, and past the counts threshold.
        assert choose_engine(protocol, 16, 1000) == "sequential"
        assert choose_engine(protocol, 1, 1000) == "sequential"
        assert choose_engine(protocol, 4, LARGE_POPULATION_THRESHOLD) == "sequential"

    @TOOLBOX
    def test_toolbox_protocol_runs_on_the_chosen_engine(self, protocol):
        engine = make_engine(choose_engine(protocol, 1, 20), protocol, 20, seed=3)
        result = engine.run(3)
        assert engine.name == "sequential"
        assert result.interactions == 60
        assert [s.population_size for s in result.snapshots] == [20, 20, 20]
        assert len(engine.outputs()) == 20

    @pytest.mark.parametrize("n", (2, 10, 32, 64, 128))
    def test_small_population_has_no_tier_of_its_own(self, n):
        """Small points fall through to the stacked tiers; exactness is opt-in."""
        protocol = DynamicSizeCounting()
        assert choose_engine(protocol, trials=1, n=n) == "batched"
        for trials in (3, 16, 96):
            assert choose_engine(protocol, trials=trials, n=n) == "ensemble"

    def test_multi_trial_vectorizable_prefers_ensemble(self):
        assert choose_engine(DynamicSizeCounting(), trials=96, n=10_000) == "ensemble"

    def test_single_large_trial_prefers_batched(self):
        assert choose_engine(DynamicSizeCounting(), trials=1, n=10_000) == "batched"

    def test_vectorized_protocol_instance_accepted(self):
        assert choose_engine(VectorizedDynamicCounting(), trials=4, n=10_000) == "ensemble"

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            choose_engine(DynamicSizeCounting(), trials=0, n=100)
        with pytest.raises(ConfigurationError):
            choose_engine(DynamicSizeCounting(), trials=1, n=1)

    def test_chosen_engine_actually_runs(self):
        protocol = DynamicSizeCounting()
        engine = choose_engine(protocol, trials=1, n=50)
        result = make_engine(engine, protocol, 50, seed=3).run(4)
        assert result.metadata["engine"] == engine
        assert result.parallel_time == 4


class TestMakeEngine:
    def test_engine_names_build_expected_classes(self):
        protocol = DynamicSizeCounting()
        assert isinstance(make_engine("sequential", protocol, 10, seed=1), Simulator)
        batched = make_engine("batched", protocol, 10, seed=1)
        assert isinstance(batched, EnsembleSimulator) and batched.trials == 1

    # "array" was an exact engine once; its name is now unknown too.
    @pytest.mark.parametrize("unknown", ("warp", "array"))
    def test_unknown_engine_rejected(self, unknown):
        with pytest.raises(ConfigurationError) as excinfo:
            make_engine(unknown, DynamicSizeCounting(), 10, seed=1)
        for name in ENGINE_NAMES:
            assert name in str(excinfo.value)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_every_engine_runs_and_reports_metadata(self, engine):
        simulator = make_engine(engine, DynamicSizeCounting(), 50, seed=3)
        result = simulator.run(5)
        assert isinstance(result, RunResult)
        assert result.metadata["engine"] == engine
        assert result.parallel_time == 5
        assert result.final_size == 50
        assert len(result.snapshots) == 5
        assert result.stopped_early is False
        series = result.series()
        assert set(series) == {
            "parallel_time",
            "population_size",
            "minimum",
            "median",
            "maximum",
        }
        assert series["parallel_time"] == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_resize_schedule_on_every_engine(self, engine):
        simulator = make_engine(
            engine, DynamicSizeCounting(), 100, seed=5, resize_schedule=[(3, 20)]
        )
        result = simulator.run(6)
        assert result.final_size == 20

    def test_sequential_rejects_vectorized_protocol(self):
        with pytest.raises(ConfigurationError):
            make_engine("sequential", VectorizedDynamicCounting(), 10, seed=1)

    def test_sequential_rejects_initial_arrays(self):
        with pytest.raises(ConfigurationError) as excinfo:
            make_engine(
                "sequential",
                DynamicSizeCounting(),
                10,
                seed=1,
                initial_arrays={"max": np.ones(10)},
            )
        # The message lists the engines whose table entry accepts them.
        assert "supported by the batched, ensemble, counts engines" in str(excinfo.value)

    @pytest.mark.parametrize("engine", ["batched", "ensemble", "counts"])
    def test_array_engines_reject_recorders(self, engine):
        with pytest.raises(ConfigurationError, match="Recorder"):
            make_engine(engine, DynamicSizeCounting(), 10, seed=1, recorders=[EstimateRecorder()])

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_adversary_keyword_is_a_type_error(self, engine):
        # Resizes are (time, target) pairs on every engine.
        with pytest.raises(TypeError, match="adversary"):
            make_engine(engine, DynamicSizeCounting(), 10, seed=1, adversary=object())

    @pytest.mark.parametrize("engine", ["batched", "ensemble", "counts"])
    def test_snapshot_stats_off_is_rejected_without_recorders(self, engine):
        # These engines always compute their snapshot statistics.
        with pytest.raises(ConfigurationError, match="snapshot_stats=False"):
            make_engine(engine, DynamicSizeCounting(), 10, seed=1, snapshot_stats=False)

    def test_sequential_honours_snapshot_stats_off(self):
        recorder = EstimateRecorder()
        engine = make_engine(
            "sequential",
            DynamicSizeCounting(),
            10,
            seed=1,
            recorders=[recorder],
            snapshot_stats=False,
        )
        result = engine.run(2)
        assert len(recorder.rows) == 2
        assert [s.population_size for s in result.snapshots] == [10, 10]

    def test_sub_batches_is_rejected_by_the_exact_engine(self):
        with pytest.raises(ConfigurationError, match="sub_batches"):
            make_engine("sequential", DynamicSizeCounting(), 10, seed=1, sub_batches=3)

    @pytest.mark.parametrize("engine", ["batched", "ensemble", "counts"])
    def test_sub_batches_is_honoured_by_the_approximate_engines(self, engine):
        default = make_engine(engine, DynamicSizeCounting(), 100, seed=1)
        assert default.sub_batches == 8
        chosen = make_engine(engine, DynamicSizeCounting(), 100, seed=1, sub_batches=3)
        assert chosen.sub_batches == 3

    def test_array_engines_reject_population_object(self):
        from repro.engine.population import Population

        with pytest.raises(ConfigurationError):
            make_engine("batched", DynamicSizeCounting(), Population([1, 2, 3]), seed=1)

    def test_sequential_accepts_recorders(self):
        recorder = EstimateRecorder()
        simulator = make_engine(
            "sequential", DynamicSizeCounting(), 20, seed=2, recorders=[recorder]
        )
        simulator.run(3)
        assert len(recorder.rows) == 3


class TestUnifiedEngineApi:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_snapshot_hooks_fire_on_every_engine(self, engine):
        simulator = make_engine(engine, DynamicSizeCounting(), 30, seed=4)
        seen = []
        simulator.add_snapshot_hook(lambda eng, snap: seen.append(snap.parallel_time))
        simulator.run(4)
        assert seen == [1, 2, 3, 4]

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_stop_when_sets_stopped_early(self, engine):
        simulator = make_engine(engine, DynamicSizeCounting(), 30, seed=4)
        result = simulator.run(50, stop_when=lambda eng, snapshot: eng.parallel_time >= 3)
        assert result.stopped_early is True
        assert result.parallel_time == 3

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_two_argument_stop_condition(self, engine):
        simulator = make_engine(engine, DynamicSizeCounting(), 30, seed=4)
        result = simulator.run(
            50, stop_when=lambda eng, snapshot: snapshot.parallel_time >= 2
        )
        assert result.stopped_early is True
        assert result.parallel_time == 2

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_one_argument_stop_condition_is_a_type_error(self, engine):
        # One convention on every engine: stop_when(engine, snapshot).
        simulator = make_engine(engine, DynamicSizeCounting(), 30, seed=4)
        with pytest.raises(TypeError):
            simulator.run(5, stop_when=lambda eng: eng.parallel_time >= 3)

    def test_sequential_snapshots_match_estimate_recorder(self):
        recorder = EstimateRecorder()
        simulator = Simulator(DynamicSizeCounting(), 40, seed=6, recorders=[recorder])
        result = simulator.run(10)
        assert [s.median for s in result.snapshots] == [r.median for r in recorder.rows]
        assert [s.minimum for s in result.snapshots] == [r.minimum for r in recorder.rows]

    def test_non_numeric_outputs_yield_nan_statistics(self):
        simulator = Simulator(ApproximateMajority(initial_opinion="A"), 10, seed=1)
        result = simulator.run(2)
        assert len(result.snapshots) == 2
        assert all(np.isnan(s.median) for s in result.snapshots)
        assert all(s.population_size == 10 for s in result.snapshots)


class TestEngineTable:
    """The engine-registry table behind make_engine/choose_engine."""

    def test_engine_names_accessor_matches_table(self):
        from repro.engine.registry import engine_names

        assert engine_names() == ENGINE_NAMES
        assert engine_names() == (
            "sequential",
            "batched",
            "ensemble",
            "counts",
        )

    def test_engine_info_exposes_capability_flags(self):
        from repro.engine.registry import engine_info

        counts = engine_info("counts")
        assert counts.name == "counts"
        assert counts.exact is False
        assert counts.supports_trials is False
        assert counts.supports_initial_arrays is True
        sequential = engine_info("sequential")
        assert sequential.exact is True
        assert sequential.supports_recorders is True

    def test_capability_flags_name_only_checked_settings(self):
        import dataclasses

        from repro.engine.registry import EngineInfo

        # No compiled-backend flag, and no checkpoint flag that nothing reads.
        assert [field.name for field in dataclasses.fields(EngineInfo)] == [
            "name",
            "builder",
            "description",
            "exact",
            "supports_trials",
            "supports_recorders",
            "supports_initial_arrays",
            "requires_int_population",
        ]

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_jit_keyword_is_a_type_error(self, engine):
        with pytest.raises(TypeError, match="jit"):
            make_engine(engine, DynamicSizeCounting(), 50, seed=1, jit=True)

    def test_engine_info_unknown_name_lists_registered(self):
        from repro.engine.registry import engine_info

        with pytest.raises(ConfigurationError) as excinfo:
            engine_info("warp")
        for name in ENGINE_NAMES:
            assert name in str(excinfo.value)

    def test_register_engine_extends_make_engine_and_listing(self):
        from repro.engine import registry
        from repro.engine.registry import EngineInfo, engine_names, register_engine

        built = {}

        def build(protocol, population, **kwargs):
            built["population"] = population
            return make_engine("batched", protocol, population, seed=1)

        register_engine(
            EngineInfo(
                name="custom-test-engine",
                builder=build,
                description="registration test double",
                exact=False,
            )
        )
        try:
            assert "custom-test-engine" in engine_names()
            assert "custom-test-engine" in registry.ENGINE_NAMES
            engine = make_engine(
                "custom-test-engine", DynamicSizeCounting(), 40, seed=1
            )
            assert built["population"] == 40
            assert isinstance(engine, EnsembleSimulator) and engine.trials == 1
            # The unknown-engine message picks up the registration too.
            with pytest.raises(ConfigurationError) as excinfo:
                make_engine("warp", DynamicSizeCounting(), 10, seed=1)
            assert "custom-test-engine" in str(excinfo.value)
        finally:
            registry._ENGINE_TABLE.pop("custom-test-engine", None)
            registry.ENGINE_NAMES = tuple(registry._ENGINE_TABLE)


class TestCountsKernelLookup:
    def test_dynamic_counting_dispatch_carries_params(self):
        from repro.core.counts import DynamicCountingCountsKernel
        from repro.engine.registry import counts_kernel_for

        params = ProtocolParameters(tau1=7, tau2=5, tau3=3, tau_prime=30, grv_samples=8)
        kernel = counts_kernel_for(DynamicSizeCounting(params))
        assert isinstance(kernel, DynamicCountingCountsKernel)
        assert kernel.params is params

    def test_phase_clock_and_vectorized_dispatch_to_counting_kernel(self):
        from repro.core.counts import DynamicCountingCountsKernel
        from repro.engine.registry import counts_kernel_for

        assert isinstance(
            counts_kernel_for(UniformPhaseClock()), DynamicCountingCountsKernel
        )
        assert isinstance(
            counts_kernel_for(VectorizedDynamicCounting()), DynamicCountingCountsKernel
        )

    @TOOLBOX
    def test_toolbox_protocol_is_rejected_by_the_counts_engine(self, protocol):
        from repro.engine.registry import has_counts_kernel

        with pytest.raises(ConfigurationError, match=type(protocol).__name__):
            make_engine("counts", protocol, 10, seed=1)
        assert not has_counts_kernel(protocol)

    def test_kernel_instance_passes_through(self):
        from repro.engine.registry import counts_kernel_for, has_counts_kernel

        kernel = MaxEpidemicCountsKernel()
        assert counts_kernel_for(kernel) is kernel
        assert has_counts_kernel(kernel)

    def test_unknown_protocol_raises_with_listing(self):
        from repro.engine.registry import counts_kernel_for, has_counts_kernel

        with pytest.raises(ConfigurationError) as excinfo:
            counts_kernel_for(DotyEftekhariCounting())
        assert "DotyEftekhariCounting" in str(excinfo.value)
        assert "DynamicSizeCounting" in str(excinfo.value)
        assert not has_counts_kernel(DotyEftekhariCounting())

    def test_unpackable_parameters_disable_the_counts_tier(self):
        """The theory preset's huge constants overflow the packed int64 key
        space; the lookup raises and has_counts_kernel turns False, steering
        auto-selection away from the counts engine."""
        from repro.core.params import theory_parameters
        from repro.engine.registry import counts_kernel_for, has_counts_kernel

        protocol = DynamicSizeCounting(theory_parameters())
        with pytest.raises(ConfigurationError, match="pack"):
            counts_kernel_for(protocol)
        assert not has_counts_kernel(protocol)
        assert choose_engine(protocol, trials=1, n=5_000_000) == "batched"
        assert choose_engine(protocol, trials=8, n=5_000_000) == "ensemble"


class TestChooseEngineCountsTier:
    def test_large_population_prefers_counts(self):
        protocol = DynamicSizeCounting()
        assert (
            choose_engine(protocol, trials=1, n=LARGE_POPULATION_THRESHOLD) == "counts"
        )
        # The counts tier outranks the ensemble tier: at this scale looping
        # counts instances beats any per-agent stacking.
        assert (
            choose_engine(protocol, trials=96, n=LARGE_POPULATION_THRESHOLD) == "counts"
        )

    def test_below_threshold_keeps_historical_tiers(self):
        protocol = DynamicSizeCounting()
        below = LARGE_POPULATION_THRESHOLD - 1
        assert choose_engine(protocol, trials=1, n=below) == "batched"
        assert choose_engine(protocol, trials=8, n=below) == "ensemble"

    @pytest.mark.usefixtures("max_epidemic_kernels")
    def test_counts_tier_for_toolbox_protocols(self):
        # A toolbox protocol given kernels takes the tiers dynamic counting takes.
        assert choose_engine(MaxEpidemic(), trials=4, n=2_000_000) == "counts"
        assert choose_engine(MaxEpidemic(), trials=4, n=1000) == "ensemble"
