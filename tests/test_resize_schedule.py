"""One resize schedule on every engine: ``(time, target)`` pairs.

Every engine takes its schedule through :func:`repro.engine.api.resize_events`
and applies it in :meth:`repro.engine.api.Engine.run`, so the same bad
schedules fail the same way everywhere and the same good schedule moves the
``population_size`` column the same way everywhere.
"""

from __future__ import annotations

import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.api import resize_events
from repro.engine.errors import ConfigurationError, InvalidScheduleError
from repro.engine.population import Population
from repro.engine.protocol import Protocol
from repro.engine.registry import engine_names, make_engine
from repro.engine.rng import RandomSource
from repro.engine.simulator import Simulator

N = 40

BAD_SCHEDULES = {
    "negative-time": [(-1, 20)],
    "target-one": [(2, 1)],
    "duplicate-times": [(3, 30), (3, 60)],
}


def _sizes(engine: str, schedule, horizon: int, **run_kwargs) -> list[float]:
    built = make_engine(engine, DynamicSizeCounting(), N, seed=3, resize_schedule=schedule)
    return built.run(horizon, **run_kwargs).series()["population_size"]


class TestValidation:
    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("name", sorted(BAD_SCHEDULES))
    def test_every_engine_rejects_the_same_schedules(self, engine, name):
        with pytest.raises(InvalidScheduleError):
            make_engine(
                engine, DynamicSizeCounting(), N, seed=1, resize_schedule=BAD_SCHEDULES[name]
            )

    @pytest.mark.parametrize("name", sorted(BAD_SCHEDULES))
    def test_one_function_validates(self, name):
        with pytest.raises(InvalidScheduleError):
            resize_events(BAD_SCHEDULES[name])

    def test_a_bad_schedule_is_a_configuration_error(self):
        assert issubclass(InvalidScheduleError, ConfigurationError)
        with pytest.raises(ConfigurationError, match="distinct times"):
            Simulator(DynamicSizeCounting(), N, seed=1, resize_schedule=[(3, 30), (3, 60)])

    def test_pairs_are_normalised_and_sorted(self):
        assert resize_events([(9.0, 30.0), (2, 20)]) == ((2, 20), (9, 30))
        assert resize_events(()) == ()


class TestApplication:
    @pytest.mark.parametrize("engine", engine_names())
    def test_shrink_then_grow_moves_every_engine_alike(self, engine):
        assert _sizes(engine, [(2, 10), (5, 60)], 7) == [40, 10, 10, 10, 60, 60, 60]

    @pytest.mark.parametrize("engine", engine_names())
    def test_an_event_fires_at_the_first_snapshot_at_or_after_its_time(self, engine):
        # Snapshots at t = 3, 6, 9: the t = 4 event lands at t = 6.
        assert _sizes(engine, [(4, 10)], 9, snapshot_every=3) == [40, 10, 10]

    @pytest.mark.parametrize("engine", engine_names())
    def test_a_time_zero_event_fires_at_the_first_snapshot(self, engine):
        assert _sizes(engine, [(0, 12)], 2) == [12, 12]

    @pytest.mark.parametrize("engine", engine_names())
    def test_an_event_fires_once(self, engine):
        built = make_engine(engine, DynamicSizeCounting(), N, seed=3, resize_schedule=[(2, 10)])
        built.run(3)
        built.resize_to(30)
        assert built.run(3).series()["population_size"] == [30, 30, 30]

    @pytest.mark.parametrize("engine", engine_names())
    def test_out_of_order_pairs_are_sorted(self, engine):
        # 40 -> (t=2) 20 -> (t=4) 8, not the other way around.
        assert _sizes(engine, [(4, 8), (2, 20)], 5) == [40, 20, 20, 8, 8]

    @pytest.mark.parametrize("engine", engine_names())
    def test_several_due_events_apply_in_time_order(self, engine):
        assert _sizes(engine, [(1, 30), (2, 8), (3, 12)], 5, snapshot_every=5) == [12]

    @pytest.mark.parametrize("engine", engine_names())
    def test_empty_schedule_keeps_the_size(self, engine):
        assert _sizes(engine, (), 3) == [40, 40, 40]

    @pytest.mark.parametrize("engine", engine_names())
    def test_resize_below_two_is_refused_and_changes_nothing(self, engine):
        built = make_engine(engine, DynamicSizeCounting(), N, seed=3)
        with pytest.raises(ConfigurationError):
            built.resize_to(1)
        assert built.size == N


class Draw(Protocol[int]):
    """Each new agent draws its state from the random source."""

    name = "draw"

    def initial_state(self, rng):
        return rng.uniform_index(1_000_000)

    def interact(self, u, v, ctx):
        return u, v


class TestSequentialResize:
    """``Simulator.resize_to`` draws exactly what the schedule drew before."""

    def test_shrink_removes_uniformly_random_agents(self):
        simulator = Simulator(Draw(), Population(range(10)), seed=5)
        reference = Population(range(10))
        reference.downsize_to(4, RandomSource.from_seed(5))
        simulator.resize_to(4)
        assert list(simulator.states()) == list(reference.states())
        assert list(simulator.population.stable_ids()) == list(reference.stable_ids())

    def test_grow_adds_initial_states_one_draw_each(self):
        simulator = Simulator(Draw(), Population([-1, -1]), seed=6)
        simulator.resize_to(7)
        source = RandomSource.from_seed(6)
        expected = [-1, -1] + [Draw().initial_state(source) for _ in range(5)]
        assert list(simulator.states()) == expected
        assert list(simulator.population.stable_ids()) == list(range(7))
