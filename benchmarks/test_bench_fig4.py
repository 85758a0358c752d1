"""Benchmark regenerating Fig. 4: adaptation after population decimation.

Paper reference: Section 5, Figure 4 — all but 500 agents are removed after
1350 parallel time; the estimate drops to the new log n within a couple of
clock rounds.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark


def test_bench_fig4_population_drop(benchmark, effort):
    result = run_experiment_benchmark(benchmark, "fig4", effort)
    for row in result.rows:
        # Before the drop the estimate tracks the original population size.
        assert row["median_before_drop"] >= 0.5 * row["log2_n"]
        # The drop is detected: the adaptation-time column is populated
        # whenever the original population is meaningfully larger than the
        # surviving one.
        if row["log2_n"] - row["log2_keep"] >= 2.0:
            assert row["adapted"], f"no adaptation detected for n={row['n']}"
            assert row["adaptation_time"] > row["drop_time"]
    print()
    print(result.table())
