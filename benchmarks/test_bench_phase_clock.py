"""Benchmark for the Theorem 2.2 phase-clock structure.

Checks the burst/overlap claim on the exact engine: in (almost) every burst
each agent ticks exactly once, and the clock period is Theta(n log n)
interactions.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark


def test_bench_phase_clock(benchmark, effort):
    result = run_experiment_benchmark(benchmark, "phase_clock", effort)
    for row in result.rows:
        assert row["exact_burst_fraction"] >= 0.6
        assert row["mean_overlap_interactions"] > row["mean_burst_interactions"]
        assert row["mean_period_interactions"] > 0
    print()
    print(result.table())
