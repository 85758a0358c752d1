"""Figure 5 (Appendix B) — recovery from an initial over-estimate of 60.

Every agent starts with ``max = lastMax = 60`` (and ``time = tau_1 * 60``),
i.e. the population believes it has ``2^60`` members.  The paper's Fig. 5
shows that the over-estimate dominates for ``O(log n-hat)`` time — visibly
longer for small populations, where a clock round paced by the wrong
estimate takes much longer relative to ``log n`` — and is then forgotten,
after which the estimates settle at the correct level.

This is also the workload where the paper's protocol is slower than the
Doty–Eftekhari baseline (their convergence depends on ``log log n-hat``
rather than ``log n-hat``); the baseline comparison scenario makes that
trade-off measurable.  Declared as the registered scenario ``"fig5"``.
"""

from __future__ import annotations

import math

from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioPoint, ScenarioSpec

__all__ = ["forgetting_time", "FIG5"]


def forgetting_time(
    trace_times: list[float],
    trace_maxima: list[float],
    initial_estimate: float,
) -> float | None:
    """First time at which no agent reports the initial over-estimate any more."""
    for time, maximum in zip(trace_times, trace_maxima):
        if maximum < initial_estimate:
            return time
    return None


def _initial_estimate(preset) -> float:
    return float(preset.extra.get("initial_estimate", 60.0))


def _points(preset, params):
    estimate = _initial_estimate(preset)
    return tuple(
        ScenarioPoint(
            n=n,
            seed=preset.seed + n,
            parallel_time=preset.parallel_time,
            trials=preset.trials,
            initial_estimate=estimate,
        )
        for n in preset.population_sizes
    )


def _row(trace, point, preset, params):
    initial_estimate = _initial_estimate(preset)
    log_n = math.log2(point.n)
    forget = forgetting_time(trace.parallel_time, trace.maximum, initial_estimate)
    final_median = trace.median[-1] if trace.median else float("nan")
    return {
        "n": point.n,
        "log2_n": log_n,
        "initial_estimate": initial_estimate,
        "forgetting_time": forget if forget is not None else float("nan"),
        "forgot_initial_estimate": forget is not None,
        "median_at_end": final_median,
        "relative_median_at_end": final_median / log_n if log_n > 0 else float("nan"),
        "trials": preset.trials,
    }


FIG5 = register(
    ScenarioSpec(
        name="fig5",
        description="Recovery from an initial over-estimate",
        points=_points,
        metrics=(_row,),
        keep_series=True,
        engine="batched",
        describe=lambda preset: (
            f"Recovery from an initial estimate of {_initial_estimate(preset):g}"
        ),
        tags=("paper",),
    )
)
