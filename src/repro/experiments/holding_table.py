"""Theorem 2.1 (holding) — how long valid estimates persist.

Theorem 2.1's holding time is ``Theta(n^{k-1} log n)`` parallel time with
``k = 16`` in the empirical setting — astronomically longer than any
simulation horizon, exactly as in the paper (whose 5000 parallel time steps
are likewise only a lower-bound check).  The scenario therefore reports

* the measured holding time within the simulation horizon,
* whether validity still held at the end of the run (it should), and
* the horizon expressed as a multiple of ``log n`` — i.e. for how many clock
  rounds the estimates were observed to stay valid.

Declared as the registered scenario ``"holding"``.
"""

from __future__ import annotations

import math

from repro.analysis.convergence import loose_stabilization_report
from repro.experiments.convergence_table import trace_to_snapshots
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec

__all__ = ["HOLDING"]


def _row(trace, point, preset, params):
    log_n = math.log2(point.n)
    report = loose_stabilization_report(
        trace_to_snapshots(trace),
        lower_factor=0.5,
        upper_factor=8.0,
        persistence=5,
        grace=2,
    )
    holding = report.holding_time if report.holding_time is not None else float("nan")
    return {
        "n": point.n,
        "log2_n": log_n,
        "parallel_time_horizon": preset.parallel_time,
        "convergence_time": (
            report.convergence_time
            if report.convergence_time is not None
            else float("nan")
        ),
        "holding_time_observed": holding,
        "held_until_end_of_run": report.held_until_end,
        "observed_rounds_held": (
            holding / (params.tau1 * log_n)
            if log_n > 0 and not math.isnan(holding)
            else float("nan")
        ),
        "trials": preset.trials,
    }


HOLDING = register(
    ScenarioSpec(
        name="holding",
        description="Observed holding time of valid estimates (Theorem 2.1 lower-bound check)",
        metrics=(_row,),
        engine="batched",
        tags=("paper",),
    )
)
