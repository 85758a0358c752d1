"""Theorem 2.1 (convergence) — measured convergence time vs ``n`` and vs ``n-hat``.

Theorem 2.1 claims a convergence time of ``O(log n-hat + log n)`` parallel
time, where ``log n-hat`` is the largest initial estimate in the population.
This scenario sweeps both the population size and the initial estimate and
reports, per combination, the measured convergence time together with the
``log n-hat + log n`` reference, so that the ratio can be checked to stay
bounded (the empirical content of the asymptotic claim).

Convergence is defined exactly as in the analysis module: all agents (over
all trials) report estimates within constant factors of ``log2 n`` for a
number of consecutive snapshots.  Declared as the registered scenario
``"convergence"``.
"""

from __future__ import annotations

import math

from repro.analysis.convergence import measure_convergence
from repro.engine.recorder import SnapshotStats
from repro.experiments.figures import EstimateTrace
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioPoint, ScenarioSpec

__all__ = ["trace_to_snapshots", "CONVERGENCE"]


def trace_to_snapshots(trace: EstimateTrace) -> list[SnapshotStats]:
    """Convert an aggregated trace into SnapshotStats rows for the analysis helpers."""
    return [
        SnapshotStats(
            parallel_time=int(t),
            population_size=int(size),
            minimum=lo,
            median=med,
            maximum=hi,
        )
        for t, size, lo, med, hi in zip(
            trace.parallel_time,
            trace.population_size,
            trace.minimum,
            trace.median,
            trace.maximum,
        )
    ]


def _points(preset, params):
    initial_estimates = tuple(preset.extra.get("initial_estimates", (1.0, 60.0)))
    return tuple(
        ScenarioPoint(
            n=n,
            seed=preset.seed + n + int(estimate * 1000),
            parallel_time=preset.parallel_time,
            trials=preset.trials,
            initial_estimate=None if estimate <= 1.0 else estimate,
            label=f"n_{n}_est_{estimate:g}",
            info={"initial_estimate": estimate},
        )
        for n in preset.population_sizes
        for estimate in initial_estimates
    )


def _row(trace, point, preset, params):
    estimate = float(point.info["initial_estimate"])
    log_n = math.log2(point.n)
    snapshots = trace_to_snapshots(trace)
    # The upper factor of 2.5 is tight enough to reject a lingering
    # over-estimate (e.g. the initial 60 for moderate n) while leaving
    # room for the ~log2(k) offset of the max-of-GRVs estimator.
    convergence = measure_convergence(
        snapshots, lower_factor=0.5, upper_factor=2.5, persistence=5
    )
    reference = max(estimate, 1.0) + log_n
    return {
        "n": point.n,
        "log2_n": log_n,
        "initial_estimate": estimate,
        "convergence_time": convergence if convergence is not None else float("nan"),
        "converged": convergence is not None,
        "reference_log_nhat_plus_log_n": reference,
        "time_over_reference": (
            convergence / reference if convergence is not None else float("nan")
        ),
        "trials": preset.trials,
    }


CONVERGENCE = register(
    ScenarioSpec(
        name="convergence",
        description="Convergence time vs population size and initial estimate (Theorem 2.1)",
        points=_points,
        metrics=(_row,),
        engine="batched",
        tags=("paper",),
    )
)
