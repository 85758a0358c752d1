"""Benchmark regenerating Fig. 3: relative deviation from log n across population sizes.

Paper reference: Section 5, Figure 3 — the relative error is largest for
small populations and approaches 1 as n grows.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark


def test_bench_fig3_relative_error(benchmark, effort):
    result = run_experiment_benchmark(benchmark, "fig3", effort)
    rows = sorted(result.rows, key=lambda row: row["n"])
    for row in rows:
        assert row["relative_minimum"] >= 0.4
        assert row["relative_maximum"] <= 8.0
    # Shape check: the median relative deviation shrinks as n grows (the
    # paper's headline observation for this figure).
    assert rows[-1]["relative_median"] <= rows[0]["relative_median"]
    print()
    print(result.table())
