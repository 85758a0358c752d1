"""Benchmark regenerating Fig. 2: size estimate over time, initially empty system.

Paper reference: Section 5, Figure 2 — minimum/median/maximum estimate of
``log n`` over 5000 parallel time for n = 10^6 (96 runs).  The quick preset
scales n and the horizon down; the shape (fast rise to slightly above
``log2 n``, then a stable plateau) is preserved.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark


def test_bench_fig2_size_estimate(benchmark, effort):
    result = run_experiment_benchmark(benchmark, "fig2", effort)
    for row in result.rows:
        # The steady-state estimate is a constant-factor approximation of
        # log2 n (the max-of-GRVs offset makes it sit above log2 n).
        assert row["steady_median"] >= 0.5 * row["log2_n"]
        assert row["steady_maximum"] <= 8.0 * row["log2_n"]
    print()
    print(result.table())
