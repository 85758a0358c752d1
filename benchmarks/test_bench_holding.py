"""Benchmark for the Theorem 2.1 holding-time table.

Within any feasible simulation horizon the holding time is only a lower
bound (the theoretical holding time is ``Theta(n^{k-1} log n)`` with k=16);
the benchmark checks that validity holds until the end of every run.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark


def test_bench_holding_table(benchmark, effort):
    result = run_experiment_benchmark(benchmark, "holding", effort)
    for row in result.rows:
        assert row["held_until_end_of_run"], f"estimates became invalid: {row}"
        assert row["observed_rounds_held"] > 1
    print()
    print(result.table())
