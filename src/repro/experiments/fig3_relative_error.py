"""Figure 3 — relative deviation of the estimate from ``log n`` across ``n``.

The paper's Fig. 3 plots, for ``n = 10^1 ... 10^6``, the relative deviation
of the minimum / median / maximum estimate from the true ``log n`` (a value
of 1 means exact).  Small populations over-estimate by a larger relative
factor (the ``+ log2 k`` additive offset of the max of ``k * n`` GRVs weighs
more when ``log n`` is small), and the deviation approaches 1 as ``n``
grows — which is exactly the shape this scenario regenerates.

Statistics are taken over the steady-state window (the second half of each
run, after convergence), mirroring how the paper reports converged
estimates.  Declared as the registered scenario ``"fig3"``.
"""

from __future__ import annotations

import math

from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec

__all__ = ["FIG3"]


def _row(trace, point, preset, params):
    log_n = math.log2(point.n)
    half = len(trace.parallel_time) // 2
    window_min = min(trace.minimum[half:])
    window_max = max(trace.maximum[half:])
    medians = sorted(trace.median[half:])
    window_med = medians[len(medians) // 2]
    return {
        "n": point.n,
        "log10_n": math.log10(point.n),
        "log2_n": log_n,
        "relative_minimum": window_min / log_n,
        "relative_median": window_med / log_n,
        "relative_maximum": window_max / log_n,
        "trials": preset.trials,
    }


FIG3 = register(
    ScenarioSpec(
        name="fig3",
        description="Relative deviation of the estimate from log n across population sizes",
        metrics=(_row,),
        engine="batched",
        tags=("paper",),
    )
)
