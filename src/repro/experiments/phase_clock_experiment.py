"""Theorem 2.2 — burst/overlap structure of the uniform phase clock.

Theorem 2.2 states that, once the population holds estimates of
``Theta(log n)``, the reset events partition time into *bursts* (every agent
ticks exactly once) separated by *overlaps* (no agent ticks), both of length
``Theta(n log n)`` interactions.  This scenario records every tick on the
exact sequential engine, reconstructs bursts and overlaps with
:mod:`repro.analysis.synchronization`, and reports

* how many bursts were exact (every live agent ticked exactly once),
* the mean burst length, overlap length and clock period in interactions,
* and the period divided by ``n log2 n`` — the constant that should be
  roughly stable across ``n`` if the ``Theta(n log n)`` claim holds.

Declared as the registered scenario ``"phase_clock"``.  Only the exact
sequential engine is supported: the burst/overlap reconstruction needs every
tick event with its exact interaction index, which the batched/ensemble engines
do not emit — so the spec provides a bespoke executor.
"""

from __future__ import annotations

import math

from repro.analysis.synchronization import analyze_synchrony
from repro.core.phase_clock import UniformPhaseClock
from repro.engine.recorder import EventRecorder
from repro.engine.rng import RandomSource, spawn_streams
from repro.engine.simulator import Simulator
from repro.experiments.base import ExperimentResult
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec

__all__ = ["PHASE_CLOCK"]


def _execute(spec, preset, params, engine) -> ExperimentResult:
    rows: list[dict[str, float]] = []

    for n in preset.population_sizes:
        log_n = math.log2(n)
        exact_fractions: list[float] = []
        burst_lengths: list[float] = []
        overlap_lengths: list[float] = []
        periods: list[float] = []
        for generator in spawn_streams(preset.seed + n, preset.trials):
            rng = RandomSource(generator)
            clock = UniformPhaseClock()
            recorder = EventRecorder(kinds={"tick"})
            simulator = Simulator(
                clock, n, rng=rng, recorders=[recorder], snapshot_stats=False
            )
            simulator.run(preset.parallel_time)
            # Skip the start-up transient: only analyse ticks from the second
            # half of the run, when the population is converged.
            cutoff = simulator.interactions_executed // 2
            events = [e for e in recorder.events if e.interaction >= cutoff]
            report = analyze_synchrony(events, n, gap_threshold=3 * n)
            exact_fractions.append(report.exact_fraction)
            burst_lengths.append(report.mean_burst_length())
            overlap_lengths.append(report.mean_overlap_length())
            periods.append(report.mean_period())

        mean = lambda xs: sum(xs) / len(xs) if xs else float("nan")  # noqa: E731
        rows.append(
            {
                "n": n,
                "log2_n": log_n,
                "exact_burst_fraction": mean(exact_fractions),
                "mean_burst_interactions": mean(burst_lengths),
                "mean_overlap_interactions": mean(overlap_lengths),
                "mean_period_interactions": mean(periods),
                "period_over_n_log_n": mean(periods) / (n * log_n) if log_n > 0 else float("nan"),
                "trials": preset.trials,
            }
        )

    return ExperimentResult(
        experiment=spec.id,
        description=spec.description_for(preset),
        rows=rows,
        metadata={
            "preset": preset.name,
            "params": params.describe(),
            "engine": "sequential",
            "scenario": spec.name,
        },
    )


PHASE_CLOCK = register(
    ScenarioSpec(
        name="phase_clock",
        description="Burst/overlap structure of the uniform phase clock (Theorem 2.2)",
        executor=_execute,
        engines=("sequential",),
        engine="sequential",
        tags=("paper",),
    )
)
