"""Theorem 2.1 (space) — per-agent memory, ours vs the Doty–Eftekhari baseline.

The paper's headline improvement is space: ``O(log s + log log n)`` bits per
agent instead of the baseline's ``O(log^2 s + log n log log n)`` bits (or
``O(log^2 s + (log log n)^2)`` in the optimised variant).  This scenario
runs both protocols on the exact sequential engine, records the peak and
steady-state per-agent footprint in bits with
:class:`repro.engine.recorder.MemoryRecorder`, and reports them side by side
together with the ``log s + log log n`` reference — regenerating the
space-complexity comparison of Section 2.2 as a measured table.

Declared as the registered scenario ``"memory"``.  Only the exact sequential
engine is supported: the per-agent memory accounting reads
:meth:`repro.engine.protocol.Protocol.memory_bits` of every state object,
which the struct-of-arrays engines do not carry — so the spec provides a
bespoke executor instead of trace metrics.
"""

from __future__ import annotations

import math

from repro.analysis.memory import summarize_memory
from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.recorder import MemoryRecorder
from repro.engine.rng import RandomSource, spawn_streams
from repro.engine.simulator import Simulator
from repro.experiments.base import ExperimentResult
from repro.protocols.doty_eftekhari import DotyEftekhariCounting
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec

__all__ = ["measure_protocol_memory", "MEMORY"]


def measure_protocol_memory(
    protocol, n: int, parallel_time: int, trials: int, seed: int
) -> tuple[float, float]:
    """Run ``trials`` simulations and return (mean peak bits, mean steady-state bits)."""
    peaks: list[float] = []
    steadies: list[float] = []
    for generator in spawn_streams(seed, trials):
        rng = RandomSource(generator)
        recorder = MemoryRecorder()
        simulator = Simulator(
            protocol, n, rng=rng, recorders=[recorder], snapshot_stats=False
        )
        simulator.run(parallel_time)
        summary = summarize_memory(recorder.rows, n)
        peaks.append(summary.peak_bits)
        steadies.append(summary.steady_state_bits)
    return sum(peaks) / len(peaks), sum(steadies) / len(steadies)


def _execute(spec, preset, params, engine) -> ExperimentResult:
    rows: list[dict[str, float]] = []

    for n in preset.population_sizes:
        log_n = math.log2(n)
        reference = math.log2(max(2.0, log_n))

        ours_peak, ours_steady = measure_protocol_memory(
            DynamicSizeCounting(params), n, preset.parallel_time, preset.trials, preset.seed + n
        )
        baseline_peak, baseline_steady = measure_protocol_memory(
            DotyEftekhariCounting(), n, preset.parallel_time, preset.trials, preset.seed + n + 1
        )
        rows.append(
            {
                "n": n,
                "log2_n": log_n,
                "log2_log2_n": reference,
                "ours_peak_bits": ours_peak,
                "ours_steady_bits": ours_steady,
                "doty_eftekhari_peak_bits": baseline_peak,
                "doty_eftekhari_steady_bits": baseline_steady,
                "baseline_over_ours": (
                    baseline_steady / ours_steady if ours_steady > 0 else float("nan")
                ),
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


MEMORY = register(
    ScenarioSpec(
        name="memory",
        description="Per-agent memory in bits: our protocol vs the Doty-Eftekhari baseline",
        executor=_execute,
        engines=("sequential",),
        engine="sequential",
        tags=("paper", "baseline"),
    )
)
