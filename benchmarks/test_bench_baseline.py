"""Benchmark for the qualitative baseline comparison (Section 2.2 discussion).

Our protocol and the Doty–Eftekhari baseline both adapt to a decimation
event; the static max-of-GRVs baseline does not.  The baseline also pays a
visibly larger per-agent memory footprint.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark


def test_bench_baseline_comparison(benchmark, effort):
    result = run_experiment_benchmark(benchmark, "baseline", effort)
    by_protocol = {}
    for row in result.rows:
        by_protocol.setdefault(row["protocol"], []).append(row)
    for row in by_protocol["dynamic-size-counting (ours)"]:
        assert row["adapted_to_drop"]
    for row in by_protocol["static-max-grv"]:
        assert not row["adapted_to_drop"]
    for row in by_protocol["doty-eftekhari-2022"]:
        ours = by_protocol["dynamic-size-counting (ours)"][0]
        assert row["peak_bits_per_agent"] > ours["peak_bits_per_agent"]
    print()
    print(result.table())
