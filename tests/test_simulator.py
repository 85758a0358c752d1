"""Tests for the exact sequential simulator."""

from __future__ import annotations

import pytest

from repro.engine.errors import ConfigurationError, EmptyPopulationError, ProtocolContractError
from repro.engine.population import Population
from repro.engine.protocol import Protocol
from repro.engine.recorder import (
    CallbackRecorder,
    EstimateRecorder,
    EventRecorder,
    PopulationSizeRecorder,
)
from repro.engine.simulator import Simulator
from repro.protocols.epidemic import MaxEpidemic


class Counter(Protocol[int]):
    """Both agents increment their state by one every interaction."""

    name = "counter"

    def initial_state(self, rng):
        return 0

    def interact(self, u, v, ctx):
        return u + 1, v + 1


class Broken(Protocol[int]):
    """Violates the contract by returning a single value."""

    def initial_state(self, rng):
        return 0

    def interact(self, u, v, ctx):
        return 7  # not a pair


class Emitter(Protocol[int]):
    """Emits one event per interaction."""

    def initial_state(self, rng):
        return 0

    def interact(self, u, v, ctx):
        ctx.emit("ping")
        return u, v


class TestConstruction:
    def test_population_from_int(self):
        sim = Simulator(Counter(), 10, seed=1)
        assert sim.population.size == 10
        assert all(state == 0 for state in sim.population.states())

    def test_population_object_is_used_directly(self):
        pop = Population([5, 6, 7])
        sim = Simulator(Counter(), pop, seed=1)
        assert sim.population is pop

    def test_rejects_too_small_population(self):
        with pytest.raises(ConfigurationError):
            Simulator(Counter(), 1, seed=1)

    def test_rejects_bad_population_type(self):
        with pytest.raises(ConfigurationError):
            Simulator(Counter(), "ten", seed=1)  # type: ignore[arg-type]


class TestRun:
    def test_interaction_count_per_parallel_step(self):
        sim = Simulator(Counter(), 10, seed=1)
        result = sim.run(5)
        assert result.parallel_time == 5
        assert result.interactions == 50
        assert result.final_size == 10

    def test_counter_conservation(self):
        # Each interaction adds exactly 2 to the total count across agents.
        sim = Simulator(Counter(), 8, seed=2)
        result = sim.run(3)
        assert sum(sim.population.states()) == 2 * result.interactions

    def test_run_zero_time(self):
        sim = Simulator(Counter(), 5, seed=1)
        result = sim.run(0)
        assert result.parallel_time == 0
        assert result.interactions == 0

    def test_negative_time_rejected(self):
        sim = Simulator(Counter(), 5, seed=1)
        with pytest.raises(ConfigurationError):
            sim.run(-1)

    def test_invalid_snapshot_interval(self):
        sim = Simulator(Counter(), 5, seed=1)
        with pytest.raises(ConfigurationError):
            sim.run(5, snapshot_every=0)

    def test_run_is_resumable(self):
        sim = Simulator(Counter(), 5, seed=1)
        sim.run(3)
        result = sim.run(2)
        assert result.parallel_time == 5
        assert result.interactions == 25

    def test_reproducibility_with_same_seed(self):
        outputs = []
        for _ in range(2):
            sim = Simulator(MaxEpidemic(), Population([9, 0, 0, 0, 0, 0]), seed=77)
            sim.run(10)
            outputs.append(list(sim.outputs()))
        assert outputs[0] == outputs[1]

    def test_stop_when_predicate(self):
        sim = Simulator(Counter(), 10, seed=1)
        result = sim.run(100, stop_when=lambda s, snapshot: s.parallel_time >= 3)
        assert result.stopped_early
        assert result.parallel_time == 3

    def test_protocol_contract_violation_detected(self):
        sim = Simulator(Broken(), 5, seed=1)
        with pytest.raises(ProtocolContractError):
            sim.run(1)

    def test_too_small_population_cannot_step(self):
        pop = Population([1])
        sim = Simulator(Counter(), pop, seed=1)
        with pytest.raises(EmptyPopulationError):
            sim.run(1)

    def test_metadata_mentions_engine_and_protocol(self):
        result = Simulator(Counter(), 5, seed=1).run(1)
        assert result.metadata["engine"] == "sequential"
        assert result.metadata["protocol"]["name"] == "counter"


class TestRecordersAndAdversary:
    def test_snapshot_called_once_per_parallel_step(self):
        times = []
        recorder = CallbackRecorder(lambda t, pop, proto: times.append(t))
        sim = Simulator(Counter(), 5, seed=1, recorders=[recorder])
        sim.run(4)
        assert times == [1, 2, 3, 4]

    def test_snapshot_every(self):
        times = []
        recorder = CallbackRecorder(lambda t, pop, proto: times.append(t))
        sim = Simulator(Counter(), 5, seed=1, recorders=[recorder])
        sim.run(6, snapshot_every=2)
        assert times == [2, 4, 6]

    def test_adversary_applied_at_snapshots(self):
        recorder = PopulationSizeRecorder()
        sim = Simulator(
            Counter(), 50, seed=1, resize_schedule=[(3, 10)], recorders=[recorder]
        )
        sim.run(6)
        assert recorder.sizes() == [50, 50, 10, 10, 10, 10]

    def test_events_dispatched_to_recorders(self):
        recorder = EventRecorder()
        sim = Simulator(Emitter(), 4, seed=1, recorders=[recorder])
        result = sim.run(2)
        assert len(recorder.events) == result.interactions

    def test_estimate_recorder_tracks_protocol_output(self):
        recorder = EstimateRecorder()
        sim = Simulator(MaxEpidemic(), Population([7, 0, 0, 0]), seed=3, recorders=[recorder])
        sim.run(20)
        assert recorder.rows[-1].maximum == 7.0
        assert recorder.rows[-1].minimum == 7.0  # epidemic has spread

    def test_epidemic_spreads_to_everyone(self):
        sim = Simulator(MaxEpidemic(), Population([5] + [0] * 49), seed=4)
        sim.run(60)
        assert all(value == 5 for value in sim.outputs())
