"""Tests for the engine registry, engine selection, and the unified API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.phase_clock import UniformPhaseClock
from repro.core.params import ProtocolParameters
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.adversary import RemoveAllButAt
from repro.engine.api import RunResult
from repro.engine.ensemble_engine import EnsembleSimulator
from repro.engine.errors import ConfigurationError
from repro.engine.recorder import EstimateRecorder
from repro.engine.registry import (
    ENGINE_NAMES,
    choose_engine,
    has_vectorized,
    make_engine,
    register_vectorized,
    registered_protocols,
    vectorized_for,
)
from repro.engine.simulator import Simulator
from repro.protocols.doty_eftekhari import DotyEftekhariCounting
from repro.protocols.epidemic import InfectionEpidemic, MaxEpidemic
from repro.protocols.junta import JuntaElection
from repro.protocols.majority import ApproximateMajority
from repro.protocols.vectorized import (
    VectorizedApproximateMajority,
    VectorizedInfectionEpidemic,
    VectorizedJuntaElection,
    VectorizedMaxEpidemic,
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

    def test_epidemic_dispatch_carries_flags(self):
        vectorized = vectorized_for(MaxEpidemic(initial_value=3, one_way=False))
        assert isinstance(vectorized, VectorizedMaxEpidemic)
        assert vectorized.initial_value == 3
        assert vectorized.one_way is False

        infection = vectorized_for(InfectionEpidemic(one_way=True))
        assert isinstance(infection, VectorizedInfectionEpidemic)
        assert infection.one_way is True

    def test_junta_and_majority_dispatch(self):
        junta = vectorized_for(JuntaElection(max_level=12))
        assert isinstance(junta, VectorizedJuntaElection)
        assert junta.max_level == 12

        majority = vectorized_for(ApproximateMajority(initial_opinion="A"))
        assert isinstance(majority, VectorizedApproximateMajority)
        assert majority.initial_opinion == "A"

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
        names = registered_protocols()
        for expected in (
            "DynamicSizeCounting",
            "UniformPhaseClock",
            "MaxEpidemic",
            "InfectionEpidemic",
            "JuntaElection",
            "ApproximateMajority",
        ):
            assert expected in names

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

    def test_sequential_rejects_adversary_plus_schedule(self):
        with pytest.raises(ConfigurationError):
            make_engine(
                "sequential",
                DynamicSizeCounting(),
                10,
                seed=1,
                adversary=RemoveAllButAt(time=1, keep=5),
                resize_schedule=[(1, 5)],
            )

    def test_array_engines_reject_adversary_and_recorders(self):
        with pytest.raises(ConfigurationError):
            make_engine(
                "batched",
                DynamicSizeCounting(),
                10,
                seed=1,
                adversary=RemoveAllButAt(time=1, keep=5),
            )
        with pytest.raises(ConfigurationError):
            make_engine(
                "ensemble", DynamicSizeCounting(), 10, seed=1, recorders=[EstimateRecorder()]
            )

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
        result = simulator.run(50, stop_when=lambda eng: eng.parallel_time >= 3)
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

    def test_stop_condition_with_optional_second_parameter(self):
        """Predicates like ``stop(sim, threshold=8)`` keep the one-arg call.

        Before the unified API the sequential engine always called
        ``stop_when(sim)``; an optional extra parameter must not flip the
        call to the two-argument convention and bind the snapshot to it.
        """

        def stop(sim, threshold=3):
            return sim.parallel_time >= threshold

        result = Simulator(DynamicSizeCounting(), 20, seed=4).run(50, stop_when=stop)
        assert result.stopped_early is True
        assert result.parallel_time == 3

    def test_batched_stop_condition_with_defaulted_snapshot_parameter(self):
        """Batched predicates like ``stop(sim, snap=None)`` keep the two-arg call.

        The batched engine always passed (engine, snapshot), so an
        ambiguous signature on an array engine must still receive the
        snapshot rather than its default.
        """
        simulator = make_engine("batched", VectorizedDynamicCounting(), 20, seed=4)
        result = simulator.run(
            50, stop_when=lambda sim, snap=None: snap.parallel_time >= 3
        )
        assert result.stopped_early is True
        assert result.parallel_time == 3

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
            "supports_adversary",
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

    def test_toolbox_dispatch_carries_flags(self):
        from repro.protocols.counts import (
            ApproximateMajorityCountsKernel,
            InfectionEpidemicCountsKernel,
            JuntaElectionCountsKernel,
            MaxEpidemicCountsKernel,
        )
        from repro.engine.registry import counts_kernel_for

        epidemic = counts_kernel_for(MaxEpidemic(initial_value=3, one_way=False))
        assert isinstance(epidemic, MaxEpidemicCountsKernel)
        assert epidemic.initial_value == 3
        assert epidemic.two_way is True

        infection = counts_kernel_for(InfectionEpidemic(one_way=True))
        assert isinstance(infection, InfectionEpidemicCountsKernel)
        assert infection.two_way is False

        junta = counts_kernel_for(JuntaElection(max_level=12))
        assert isinstance(junta, JuntaElectionCountsKernel)
        assert junta.max_level == 12

        majority = counts_kernel_for(ApproximateMajority(initial_opinion="A"))
        assert isinstance(majority, ApproximateMajorityCountsKernel)
        assert majority.initial_opinion == "A"

    def test_kernel_instance_passes_through(self):
        from repro.protocols.counts import InfectionEpidemicCountsKernel
        from repro.engine.registry import counts_kernel_for, has_counts_kernel

        kernel = InfectionEpidemicCountsKernel()
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
        from repro.engine.registry import LARGE_POPULATION_THRESHOLD

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
        from repro.engine.registry import LARGE_POPULATION_THRESHOLD

        protocol = DynamicSizeCounting()
        below = LARGE_POPULATION_THRESHOLD - 1
        assert choose_engine(protocol, trials=1, n=below) == "batched"
        assert choose_engine(protocol, trials=8, n=below) == "ensemble"

    def test_counts_tier_for_toolbox_protocols(self):
        assert choose_engine(MaxEpidemic(), trials=4, n=2_000_000) == "counts"
        assert choose_engine(JuntaElection(), trials=1, n=2_000_000) == "counts"
