"""Benchmark for the Theorem 2.1 convergence-time table.

Regenerates the measured convergence time against the ``log n-hat + log n``
reference for a sweep of population sizes and initial estimates.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark


def test_bench_convergence_table(benchmark, effort):
    result = run_experiment_benchmark(benchmark, "convergence", effort)
    for row in result.rows:
        assert row["converged"], f"run did not converge: {row}"
        assert row["convergence_time"] >= 0
    print()
    print(result.table())
