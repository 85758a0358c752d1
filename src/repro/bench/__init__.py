"""Provenance helpers for the benchmark in ``perfbench/``.

The package keeps only :mod:`repro.bench.suite`, whose
:func:`~repro.bench.suite.machine_metadata` and
:func:`~repro.bench.suite.git_metadata` ``perfbench/workload.py`` imports at
the end of every benchmark run to stamp its report.  Timing comparisons run
through ``scripts/perf_ab.py``.
"""
