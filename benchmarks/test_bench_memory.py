"""Benchmark for the Theorem 2.1 space-complexity comparison.

Ours (O(log s + log log n) bits) versus the Doty–Eftekhari baseline
(O(log n log log n)-style storage): the baseline must use strictly more bits
per agent, and the gap must widen with n.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark


def test_bench_memory_table(benchmark, effort):
    result = run_experiment_benchmark(benchmark, "memory", effort)
    rows = sorted(result.rows, key=lambda row: row["n"])
    for row in rows:
        assert row["doty_eftekhari_steady_bits"] > row["ours_steady_bits"]
    # The overhead factor grows with n (different asymptotics).
    assert rows[-1]["baseline_over_ours"] >= rows[0]["baseline_over_ours"] * 0.9
    print()
    print(result.table())
