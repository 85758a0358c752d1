"""Trace loading, schedule builders, and multi-phase timelines.

Covers the CSV edge cases (empty CSV, non-monotonic timestamps,
duplicate steps, sizes below 2), both CSV layouts, the resampling
contract, that every builder returns plain ``(time, size)`` pairs, and
the multi-phase machinery including phase boundaries landing in
``ExperimentResult`` metadata.
"""

from __future__ import annotations

import math

import pytest

from repro.engine.api import resize_events
from repro.engine.errors import InvalidScheduleError
from repro.experiments.base import ExperimentPreset
from repro.scenarios import schedules
from repro.scenarios.phases import Phase, chain_phases, phase_boundaries
from repro.scenarios.runner import run_scenario
from repro.scenarios.traces import Trace, bundled_trace, bundled_trace_names


class TestTraceParsing:
    def test_absolute_layout(self):
        trace = Trace.from_text("timestamp,size\n0,100\n60,400\n120,80\n")
        assert trace.times == (0.0, 60.0, 120.0)
        assert trace.sizes == (100.0, 400.0, 80.0)
        assert trace.initial_size == 100.0

    def test_delta_layout_accumulates(self):
        trace = Trace.from_text("step,delta\n0,600\n50,-30\n100,-420\n")
        assert trace.sizes == (600.0, 570.0, 150.0)

    def test_empty_csv_rejected(self):
        with pytest.raises(InvalidScheduleError, match="empty CSV"):
            Trace.from_text("")
        with pytest.raises(InvalidScheduleError, match="empty CSV"):
            Trace.from_text("\n\n")

    def test_header_only_rejected(self):
        with pytest.raises(InvalidScheduleError, match="no data rows"):
            Trace.from_text("timestamp,size\n")

    def test_non_monotonic_timestamps_rejected(self):
        with pytest.raises(InvalidScheduleError, match="monoton"):
            Trace.from_text("timestamp,size\n0,100\n60,200\n30,300\n")

    def test_duplicate_steps_rejected(self):
        # Duplicates are a special case of non-monotonic time.
        with pytest.raises(InvalidScheduleError, match="monoton"):
            Trace.from_text("step,delta\n0,100\n50,10\n50,20\n")

    def test_sizes_below_two_rejected(self):
        with pytest.raises(InvalidScheduleError, match="minimum of 2"):
            Trace.from_text("timestamp,size\n0,100\n60,1\n")
        # ... including via a delta that drains the population.
        with pytest.raises(InvalidScheduleError, match="minimum of 2"):
            Trace.from_text("step,delta\n0,100\n50,-99\n")

    def test_unrecognised_header_rejected(self):
        with pytest.raises(InvalidScheduleError, match="header"):
            Trace.from_text("foo,bar\n1,2\n")

    def test_bad_cell_carries_row_number(self):
        with pytest.raises(InvalidScheduleError, match="line 3"):
            Trace.from_text("timestamp,size\n0,100\nsoon,200\n")
        with pytest.raises(InvalidScheduleError):
            Trace.from_text("timestamp,size\n0,nan\n")


class TestResample:
    def test_scales_to_population_and_horizon(self):
        trace = Trace.from_text("timestamp,size\n0,100\n50,400\n100,50\n")
        schedule = trace.resample(horizon=200, n=1000)
        # First sample is the initial size (no event); later samples scale
        # by n / initial and land at proportional steps.
        assert schedule == ((100, 4000), (199, 500))
        resize_events(schedule)

    def test_steps_stay_inside_horizon(self):
        trace = Trace.from_text("timestamp,size\n0,10\n1,20\n2,30\n3,40\n")
        schedule = trace.resample(horizon=2, n=10)
        assert all(1 <= step <= 1 for step, _ in schedule)

    def test_rejects_tiny_targets(self):
        trace = Trace.from_text("timestamp,size\n0,10\n1,20\n")
        with pytest.raises(InvalidScheduleError):
            trace.resample(horizon=100, n=1)
        with pytest.raises(InvalidScheduleError):
            trace.resample(horizon=1, n=10)


class TestBundledTraces:
    def test_names(self):
        assert bundled_trace_names() == ("diurnal", "failover", "flash_crowd")

    @pytest.mark.parametrize("name", ["diurnal", "failover", "flash_crowd"])
    def test_loadable_and_resamplable(self, name):
        trace = bundled_trace(name)
        schedule = trace.resample(horizon=600, n=2000)
        resize_events(schedule)

    def test_unknown_name_lists_available(self):
        with pytest.raises(InvalidScheduleError, match="flash_crowd"):
            bundled_trace("does_not_exist")


class TestPlainSchedules:
    def test_builders_return_plain_pairs(self):
        built = (
            schedules.oscillation(100, low=10, period=5, horizon=20),
            schedules.growth_crash(
                100, growth_factor=2.0, growth_steps=2, period=5, crash_target=10, horizon=30
            ),
            schedules.random_churn(100, low=10, high=100, period=5, horizon=30, seed=1),
            schedules.repeated_decimation(100, factor=2.0, period=5, horizon=30),
            schedules.merge_schedules(((7, 20),), ((3, 40),)),
            bundled_trace("flash_crowd").resample(horizon=60, n=100),
            chain_phases((Phase("a", 10), Phase("b", 10, start_size=30))),
        )
        for pairs in built:
            assert type(pairs) is tuple and pairs
            assert all(type(pair) is tuple and len(pair) == 2 for pair in pairs)
            assert all(type(value) is int for pair in pairs for value in pair)
            assert resize_events(pairs) == tuple(sorted(pairs))


class TestPhases:
    def test_validation(self):
        with pytest.raises(InvalidScheduleError):
            Phase("", 10)
        with pytest.raises(InvalidScheduleError):
            Phase("x", 0)
        with pytest.raises(InvalidScheduleError):
            Phase("x", 10, start_size=1)
        with pytest.raises(InvalidScheduleError):
            chain_phases(())
        # The very first phase cannot request a resize at time zero.
        with pytest.raises(InvalidScheduleError, match="time zero"):
            chain_phases((Phase("a", 10, start_size=50),))

    def test_chain_offsets_and_boundaries(self):
        phases = (
            Phase("steady", 100),
            Phase("outage", 50, start_size=20),
            Phase("recovery", 80, start_size=400),
        )
        schedule = chain_phases(phases)
        assert schedule == ((100, 20), (150, 400))
        bounds = phase_boundaries(phases)
        assert [dict(b) for b in bounds] == [
            {"name": "steady", "start": 0, "stop": 100},
            {"name": "outage", "start": 100, "stop": 150},
            {"name": "recovery", "start": 150, "stop": 230},
        ]

    def test_inner_phase_events_shift(self):
        phases = (
            Phase("a", 40),
            Phase("b", 40, start_size=30, schedule=((10, 60),)),
        )
        assert chain_phases(phases) == ((40, 30), (50, 60))


class TestFailoverScenario:
    def test_phase_boundaries_in_metadata(self):
        preset = ExperimentPreset(
            name="tiny",
            population_sizes=(256,),
            parallel_time=120,
            trials=2,
            seed=13,
            extra={"outage_divisor": 8},
        )
        result = run_scenario("failover", preset=preset)
        phases = result.metadata["phases"]["n_256"]
        assert [p["name"] for p in phases] == ["steady", "outage", "recovery"]
        assert phases[0]["start"] == 0
        assert phases[-1]["stop"] == 120
        row = result.rows[0]
        for name in ("steady", "outage", "recovery"):
            assert f"phase_{name}_mean_error" in row
            assert f"phase_{name}_max_error" in row
            assert math.isfinite(row[f"phase_{name}_mean_error"])

    @pytest.mark.parametrize("name", ["flash_crowd", "diurnal"])
    def test_trace_scenarios_run(self, name):
        preset = ExperimentPreset(
            name="tiny",
            population_sizes=(200,),
            parallel_time=90,
            trials=2,
            seed=13,
        )
        result = run_scenario(name, preset=preset)
        row = result.rows[0]
        assert row["n"] == 200
        assert row["resize_events"] > 0
        assert math.isfinite(row["mean_tracking_error"])
