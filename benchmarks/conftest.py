"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure or table of the paper at the
``quick`` preset (laptop-scale) and records the resulting rows in the
benchmark's ``extra_info`` so that the numbers appear in the pytest-benchmark
JSON output alongside the timing.  Set the environment variable
``REPRO_BENCH_EFFORT=default`` (or ``paper``) to run the larger presets.

The engine, parallel, checkpoint and counts modules assert speedup floors
instead: they time with :func:`measure`, collect one plain dict per
case through the :func:`suite_cases` fixture and, when ``REPRO_BENCH_DIR``
is set, write them as JSON to one ``BENCH_*.json`` per module
(``BENCH_engines.json``, ``BENCH_parallel.json``, ...).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable

import pytest


def measure(fn: Callable[[], Any], *, warmup: int = 0, repeats: int = 1) -> list[float]:
    """Run ``fn`` ``warmup`` times untimed, then ``repeats`` times timed.

    Returns the timed samples in seconds, in execution order.
    """
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return samples


@pytest.fixture(scope="session")
def effort() -> str:
    """Benchmark effort level, controlled by REPRO_BENCH_EFFORT."""
    level = os.environ.get("REPRO_BENCH_EFFORT", "quick")
    if level not in ("quick", "default", "paper"):
        raise ValueError(f"invalid REPRO_BENCH_EFFORT {level!r}")
    return level


@pytest.fixture(scope="module")
def suite_cases(request, effort) -> list[dict[str, Any]]:
    """Per-module collector of benchmark cases, one plain dict each.

    At module teardown the collected cases are written as JSON to
    ``$REPRO_BENCH_DIR/<module's BENCH_SUITE_FILENAME>`` when that
    environment variable is set (the CI bench job sets it to upload the
    files as artifacts).  Without it the cases are simply discarded — the
    assertions in the tests themselves are the point of a plain pytest run.
    """
    cases: list[dict[str, Any]] = []
    yield cases
    out_dir = os.environ.get("REPRO_BENCH_DIR")
    filename = getattr(request.module, "BENCH_SUITE_FILENAME", None)
    if not out_dir or filename is None or not cases:
        return
    path = Path(out_dir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"effort": effort, "cases": cases}, indent=2) + "\n")


def run_experiment_benchmark(benchmark, runner, effort: str):
    """Run an experiment once under pytest-benchmark and attach its rows."""
    result = benchmark.pedantic(lambda: runner(effort=effort), rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = result.experiment
    benchmark.extra_info["preset"] = result.metadata.get("preset")
    benchmark.extra_info["rows"] = result.rows
    return result
