"""Figure 2 — size estimate over time in a large, initially empty system.

The paper's Fig. 2 shows the minimum, median and maximum estimate of
``log n`` across 96 runs for a population of 10^6 agents simulated for 5000
parallel time steps, starting from the empty initial configuration (all
agents in the predefined initial state).  The estimates rise quickly from 1
to slightly above ``log2 n`` (the maximum of ``k * n`` GRVs with ``k = 16``
concentrates around ``log2 n + 4``) and then stay there — the protocol's
long holding time in action.

The workload is declared as a :class:`repro.scenarios.spec.ScenarioSpec`
registered as ``"fig2"``, which :func:`repro.scenarios.runner.run_scenario`
runs.  The spec pins the ``batched`` engine so that default outputs stay
bit-identical to the published runs; pass
``options=ExecutionOptions(engine="auto")`` (or another engine name) to
override.
"""

from __future__ import annotations

import math

from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioPoint, ScenarioSpec

__all__ = ["FIG2"]


def _points(preset, params):
    # One point per population size; all points share the preset's root seed
    # (the historical Fig. 2 behaviour).
    return tuple(
        ScenarioPoint(
            n=n,
            seed=preset.seed,
            parallel_time=preset.parallel_time,
            trials=preset.trials,
        )
        for n in preset.population_sizes
    )


def _row(trace, point, preset, params):
    # Summary row: plateau statistics over the second half of the run.
    half = len(trace.parallel_time) // 2
    tail_min = min(trace.minimum[half:]) if half < len(trace.minimum) else float("nan")
    tail_max = max(trace.maximum[half:]) if half < len(trace.maximum) else float("nan")
    tail_med = sorted(trace.median[half:])[len(trace.median[half:]) // 2]
    return {
        "n": point.n,
        "log2_n": math.log2(point.n),
        "steady_minimum": tail_min,
        "steady_median": tail_med,
        "steady_maximum": tail_max,
        "trials": preset.trials,
        "parallel_time": preset.parallel_time,
    }


FIG2 = register(
    ScenarioSpec(
        name="fig2",
        description="Size estimate over parallel time (initially empty system)",
        points=_points,
        metrics=(_row,),
        keep_series=True,
        engine="batched",
        tags=("paper",),
    )
)
