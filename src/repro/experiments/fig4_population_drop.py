"""Figure 4 — adaptation after the adversary decimates the population.

The paper's Fig. 4 removes all but 500 agents at parallel time 1350 (for
initial sizes ``n = 10^3 ... 10^6``) and shows that the estimate drops to
the new ``log n`` within a couple of clock rounds.  The trailing estimate
(``lastMax``) delays the visible drop by exactly one round — a feature, not
a bug: it is what keeps the phase lengths long enough during normal
operation.

Declared as the registered scenario ``"fig4"``; the summary rows report the
estimate plateau before the drop, the plateau at the end of the run, and the
adaptation time (first snapshot after the drop at which the median estimate
is within the valid band of the *new* population size).
"""

from __future__ import annotations

import math

from repro.experiments.config import decimation_knobs
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioPoint, ScenarioSpec

__all__ = ["adaptation_time", "FIG4"]


def adaptation_time(
    trace_times: list[float],
    trace_medians: list[float],
    drop_time: float,
    pre_drop_level: float,
    target_level: float,
) -> float | None:
    """First time after ``drop_time`` at which the median has crossed towards the new level.

    "Crossed" means the median estimate has moved below the midpoint between
    the pre-drop plateau and the post-drop target (``log2`` of the surviving
    population scaled by the GRV offset).  This is the visually obvious
    "the curve has dropped" moment of the paper's Fig. 4, made precise
    without having to pick absolute validity constants.
    """
    if pre_drop_level <= target_level:
        # The drop is too small to be observable (e.g. n close to keep).
        return drop_time
    midpoint = (pre_drop_level + target_level) / 2.0
    for time, median in zip(trace_times, trace_medians):
        if time <= drop_time:
            continue
        if median <= midpoint:
            return time
    return None


def _points(preset, params):
    drop_time, keep = decimation_knobs(preset)
    return tuple(
        ScenarioPoint(
            n=n,
            seed=preset.seed + n,
            parallel_time=preset.parallel_time,
            trials=preset.trials,
            resize_schedule=((drop_time, keep),),
        )
        for n in preset.population_sizes
    )


def _row(trace, point, preset, params):
    drop_time, keep = decimation_knobs(preset)
    log_n = math.log2(point.n)
    new_log_n = math.log2(keep)
    pre_drop = [m for t, m in zip(trace.parallel_time, trace.median) if t < drop_time]
    pre_level = pre_drop[-1] if pre_drop else float("nan")
    final_level = trace.median[-1] if trace.median else float("nan")
    # Target level after adaptation: the max of k * keep GRVs sits around
    # log2(keep) + log2(k).
    target_level = new_log_n + math.log2(max(1, params.grv_samples))
    adapt = adaptation_time(
        trace.parallel_time, trace.median, drop_time, pre_level, target_level
    )
    return {
        "n": point.n,
        "log2_n": log_n,
        "keep": keep,
        "log2_keep": new_log_n,
        "drop_time": drop_time,
        "median_before_drop": pre_level,
        "median_at_end": final_level,
        "adaptation_time": adapt if adapt is not None else float("nan"),
        "adapted": adapt is not None,
        "trials": preset.trials,
    }


def _describe(preset) -> str:
    drop_time, keep = decimation_knobs(preset)
    return f"Size estimate with decimation to {keep} agents at t={drop_time}"


FIG4 = register(
    ScenarioSpec(
        name="fig4",
        description="Size estimate with a decimation event (adversarial drop)",
        points=_points,
        metrics=(_row,),
        keep_series=True,
        engine="batched",
        describe=_describe,
        tags=("paper", "adversarial"),
        schedule_kind="decimation",
        knobs=("drop_time", "keep"),
    )
)
