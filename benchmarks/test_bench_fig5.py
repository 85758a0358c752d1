"""Benchmark regenerating Fig. 5 (Appendix B): recovery from an initial estimate of 60.

Paper reference: Appendix B, Figure 5 — every agent starts with an estimate
of 60; the over-estimate dominates for a period that shrinks (relative to
the horizon) as n grows, and is eventually forgotten.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark


def test_bench_fig5_initial_estimate(benchmark, effort):
    result = run_experiment_benchmark(benchmark, "fig5", effort)
    rows = sorted(result.rows, key=lambda row: row["n"])
    # The largest population always forgets the over-estimate within the
    # horizon (its clock rounds are short relative to the horizon).
    largest = rows[-1]
    assert largest["forgot_initial_estimate"]
    assert largest["median_at_end"] < largest["initial_estimate"]
    print()
    print(result.table())
