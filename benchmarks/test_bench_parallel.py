"""Shard-count scaling benchmark of the parallel execution layer.

Times the Fig. 3-preset-shaped workload under the sharded execution path
at ``workers`` ∈ {1, 2, 4} on its *loop-bound* points — the regime where
per-trial Python work dominates and process sharding should scale with
cores.  Timing uses ``conftest.measure``; the cases go to
``$REPRO_BENCH_DIR/BENCH_parallel.json`` when set.

Two loop-bound flavours are measured:

* the **sequential engine** (pure-Python interaction loop — the workload
  that cannot use the ensemble engine's in-process batching at all and
  has historically capped sweep throughput at one core), and
* **batched trials at small n** (the trial runner stacks them in-process,
  one random stream per row; sharding splits the stacks over processes).
  Stacking cut the per-shard work this case was chosen for: at quick
  effort on a 2-core box, ``workers=1`` went from 1.61-1.86 s to
  0.42-0.51 s and ``workers=2`` from 0.77-0.94 s to 0.25-0.31 s when the
  trials were stacked.

The >= 2x speedup at 4 workers is asserted only in the dedicated bench
job (``REPRO_BENCH_ASSERT=1``) and only when the machine actually has
>= 4 CPUs — on fewer cores (or shared runners without the flag) the
numbers are recorded but never gate the suite, so timing noise and
single-core containers cannot fail it.
"""

from __future__ import annotations

import os

from conftest import measure

from repro.engine.options import ExecutionOptions
from repro.experiments.figures import run_estimate_trace

#: Suite file the ``suite_cases`` collector writes under ``REPRO_BENCH_DIR``.
BENCH_SUITE_FILENAME = "BENCH_parallel.json"

#: Fig. 3-preset-shaped loop-bound workloads per effort level:
#: (sequential point, batched point), each (n, trials, parallel_time).
#: Trial counts are multiples of 4x the default shard size so the point
#: splits into at least four equal shards (4-worker parallelism with no
#: straggler); the sequential point keeps ``n`` modest because its cost is
#: O(n * parallel_time * trials) in Python.
WORKLOADS = {
    "quick": {"sequential": (200, 32, 40), "batched": (1_000, 32, 60)},
    "default": {"sequential": (500, 32, 60), "batched": (1_000, 64, 200)},
    "paper": {"sequential": (1_000, 32, 100), "batched": (10_000, 96, 400)},
}

WORKER_COUNTS = (1, 2, 4)


def test_bench_parallel_shard_scaling(suite_cases, effort):
    workloads = WORKLOADS[effort]
    cpu_count = os.cpu_count() or 1

    per_engine: dict[str, dict] = {}
    for engine, (n, trials, parallel_time) in workloads.items():
        seconds = {}
        reference_rows = None
        for workers in WORKER_COUNTS:
            trace = None

            def point(workers=workers):
                nonlocal trace
                trace = run_estimate_trace(
                    n,
                    parallel_time,
                    trials=trials,
                    seed=1,
                    options=ExecutionOptions(engine=engine, workers=workers),
                )

            timing = measure(point, warmup=0, repeats=1)
            seconds[workers] = min(timing)
            # The determinism contract, re-checked at bench scale: every
            # worker count reproduces the same aggregated trace.
            rows = (trace.minimum, trace.median, trace.maximum)
            if reference_rows is None:
                reference_rows = rows
            else:
                assert rows == reference_rows, (
                    f"{engine}: workers={workers} changed the results"
                )
        entry = {
            "n": n,
            "trials": trials,
            "parallel_time": parallel_time,
            "seconds_by_workers": {str(w): seconds[w] for w in WORKER_COUNTS},
            "speedup_2_workers": seconds[1] / seconds[2],
            "speedup_4_workers": seconds[1] / seconds[4],
            "cpu_count": cpu_count,
        }
        per_engine[engine] = entry
        work = n * parallel_time * trials
        for workers in WORKER_COUNTS:
            suite_cases.append(
                dict(
                    case_id=f"shard-scaling:{engine}[workers={workers}]@{effort}",
                    scenario=f"shard-scaling:{engine}",
                    engine=engine,
                    workers=workers,
                    effort=effort,
                    seconds=[seconds[workers]],
                    work_interactions=work,
                    extra=entry,
                )
            )

    # Functional runs only check that everything completed and was timed;
    # the wall-clock gate lives in the dedicated bench job.
    assert all(
        entry["seconds_by_workers"][str(w)] > 0
        for entry in per_engine.values()
        for w in WORKER_COUNTS
    )

    # Regression guard: on a >= 4-core machine the loop-bound points must
    # scale at least 2x at 4 workers (near-linear minus pool startup and
    # result pickling; CI runners measure comfortably above this floor).
    if os.environ.get("REPRO_BENCH_ASSERT") and cpu_count >= 4:
        for engine, entry in per_engine.items():
            assert entry["speedup_4_workers"] >= 2.0, (engine, per_engine)
