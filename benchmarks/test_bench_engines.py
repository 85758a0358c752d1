"""Engine benchmark matrix (engineering, not in the paper).

Every workload is timed with ``conftest.measure`` and recorded as one
case dict via the ``suite_cases`` collector (written to
``$REPRO_BENCH_DIR/BENCH_engines.json`` when set).

Covered here:

* the engine matrix — every registered engine (sequential / batched /
  ensemble / counts) on dynamic size counting, the one protocol with
  vectorised and counts kernels, across a sweep of population sizes;
* a larger single-cell probe of the batched engine;
* the Fig. 3-preset speedup of the stacked engines (``ensemble``, and
  ``batched`` through the trial runner) over the per-trial loop of
  one-row engines, with wall-clock assertions gated by
  ``REPRO_BENCH_ASSERT`` so shared-runner noise can never fail a plain
  test run.

Population sizes scale with ``REPRO_BENCH_EFFORT`` (see ``conftest.py``).
"""

from __future__ import annotations

import os

import pytest
from conftest import measure

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.options import ExecutionOptions
from repro.engine.registry import ENGINE_NAMES, make_engine
from repro.engine.rng import SeedTree
from repro.experiments.figures import run_estimate_trace

#: Suite file the ``suite_cases`` collector writes under ``REPRO_BENCH_DIR``.
BENCH_SUITE_FILENAME = "BENCH_engines.json"

#: Population sizes per effort level.  The exact engine is O(n) Python
#: work per parallel step, so the sweep stays modest below ``paper``.
SIZES = {
    "quick": (200, 500),
    "default": (500, 2_000, 10_000),
    "paper": (1_000, 10_000, 100_000),
}

PARALLEL_TIME = 10


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_bench_engine_matrix(suite_cases, effort, engine):
    sizes = SIZES[effort]
    interactions = 0

    def sweep() -> None:
        nonlocal interactions
        interactions = 0
        for n in sizes:
            simulator = make_engine(engine, DynamicSizeCounting(), n, seed=1)
            result = simulator.run(PARALLEL_TIME)
            assert result.parallel_time == PARALLEL_TIME
            interactions += result.interactions

    timing = measure(sweep, warmup=0, repeats=1)
    assert interactions == sum(sizes) * PARALLEL_TIME
    suite_cases.append(
        dict(
            case_id=f"engine-matrix:dynamic-counting[engine={engine}]@{effort}",
            scenario="engine-matrix:dynamic-counting",
            engine=engine,
            effort=effort,
            seconds=timing,
            work_interactions=interactions,
            extra={
                "population_sizes": list(sizes),
                "parallel_time_per_size": PARALLEL_TIME,
            },
        )
    )


#: Larger single-cell probe of the batched engine (the matrix above keeps
#: its sizes small so the Python-loop engines stay fast).
BATCHED_SCALE = {"quick": 50_000, "default": 200_000, "paper": 1_000_000}


def test_bench_batched_engine_at_scale(suite_cases, effort):
    n, parallel_time = BATCHED_SCALE[effort], 30
    interactions = 0

    def run() -> None:
        nonlocal interactions
        simulator = make_engine("batched", DynamicSizeCounting(), n, seed=1)
        interactions = simulator.run(parallel_time).interactions

    timing = measure(run, warmup=0, repeats=1)
    assert interactions == n * parallel_time
    suite_cases.append(
        dict(
            case_id=f"batched-at-scale[n={n}]@{effort}",
            scenario="batched-at-scale",
            engine="batched",
            effort=effort,
            seconds=timing,
            work_interactions=interactions,
            extra={"population_size": n, "parallel_time": parallel_time},
        )
    )


#: Fig. 3-preset-shaped speedup workload per effort level:
#: (population sweep, trials, parallel_time).  The sweep covers the preset's
#: population range up to the >= 10^4 acceptance point; trials match the
#: preset family (>= 16; the paper preset runs 96).
FIG3_SPEEDUP = {
    "quick": ((10, 100, 1_000, 10_000), 16, 60),
    "default": ((10, 100, 1_000, 10_000), 16, 400),
    "paper": ((10, 100, 1_000, 10_000, 100_000), 96, 1_000),
}


def _run_batched_looped(n, parallel_time, trials, seed):
    """The per-trial loop: one one-row ``batched`` engine per trial stream."""
    tree = SeedTree.from_seed(seed)
    for trial in range(trials):
        make_engine(
            "batched", DynamicSizeCounting(), n, rng=tree.trial(trial).source()
        ).run(parallel_time)


def test_bench_ensemble_speedup_fig3_preset(suite_cases, effort):
    """Stacked passes vs the per-trial loop of one-row engines on Fig. 3.

    Three ways to run each point: the per-trial loop (one one-row
    ``batched`` engine per trial stream, what ``engine="batched"`` ran
    before its trials were stacked), ``batched`` through the trial runner
    (stacks with one stream per row, bit-identical to the loop) and
    ``ensemble`` (one stack on one shared stream).  Wherever the per-trial
    Python loop dominates — every small/mid-``n`` point of the preset —
    both stacked engines are several times faster.  At ``n = 10^4`` a
    single population's batches are already 1250 lanes wide, so the loop
    overhead the ensemble removes shrinks and the win settles around
    1.4-2x; every point's numbers are recorded in the cases' ``extra`` so
    the perf trajectory stays tracked.
    """
    sizes, trials, parallel_time = FIG3_SPEEDUP[effort]

    per_point = {}
    totals = {"looped": 0.0, "batched": 0.0, "ensemble": 0.0}
    for n in sizes:
        looped = min(
            measure(
                lambda n=n: _run_batched_looped(n, parallel_time, trials, 1),
                warmup=0,
                repeats=1,
            )
        )
        stacked = {
            engine: min(
                measure(
                    lambda n=n, engine=engine: run_estimate_trace(
                        n,
                        parallel_time,
                        trials=trials,
                        seed=1,
                        options=ExecutionOptions(engine=engine),
                    ),
                    warmup=0,
                    repeats=1,
                )
            )
            for engine in ("batched", "ensemble")
        }
        per_point[n] = {
            "looped_batched_seconds": looped,
            "stacked_batched_seconds": stacked["batched"],
            "ensemble_seconds": stacked["ensemble"],
            "speedup": looped / stacked["ensemble"],
            "stacked_batched_speedup": looped / stacked["batched"],
        }
        totals["looped"] += looped
        totals["batched"] += stacked["batched"]
        totals["ensemble"] += stacked["ensemble"]

    loop_bound = [n for n in sizes if n <= 1_000]
    looped_loop_bound = sum(per_point[n]["looped_batched_seconds"] for n in loop_bound)
    loop_bound_speedup = looped_loop_bound / sum(
        per_point[n]["ensemble_seconds"] for n in loop_bound
    )
    batched_loop_bound_speedup = looped_loop_bound / sum(
        per_point[n]["stacked_batched_seconds"] for n in loop_bound
    )

    work = sum(n * parallel_time * trials for n in sizes)
    shared_extra = {
        "trials": trials,
        "parallel_time": parallel_time,
        "per_point": {str(n): per_point[n] for n in sizes},
        "sweep_speedup": totals["looped"] / totals["ensemble"],
        "loop_bound_speedup": loop_bound_speedup,
        "batched_loop_bound_speedup": batched_loop_bound_speedup,
    }
    for case, engine, seconds in (
        ("engine=batched,loop=per-trial", "batched", totals["looped"]),
        ("engine=batched", "batched", totals["batched"]),
        ("engine=ensemble", "ensemble", totals["ensemble"]),
    ):
        suite_cases.append(
            dict(
                case_id=f"fig3-speedup[{case}]@{effort}",
                scenario="fig3-speedup",
                engine=engine,
                effort=effort,
                seconds=[seconds],
                work_interactions=work,
                extra=shared_extra,
            )
        )

    # Functional runs only check that every path completed and was timed;
    # every wall-clock comparison gates on the dedicated bench job
    # (REPRO_BENCH_ASSERT=1 in ci.yml) so shared-runner timing noise can
    # never fail the test suite.
    assert all(
        p["ensemble_seconds"] > 0 and p["stacked_batched_seconds"] > 0
        for p in per_point.values()
    )

    # Measured margins (quick effort, 2-core box, against the per-trial
    # loop of one-row engines): ensemble >= 5x asserted at ~11x over the
    # trial-loop-bound points (15 / 14 / 6.9x at n = 10 / 100 / 1000); the
    # widest point asserted at 1.2x, measured ~1.5x; the whole sweep
    # asserted at 2x, measured ~3.3x.  Stacked batched over the same loop
    # on the loop-bound points: asserted at 4x, measured ~7.7x (11 / 9.4 /
    # 4.8x).
    if os.environ.get("REPRO_BENCH_ASSERT"):
        assert loop_bound_speedup >= 5.0, per_point
        assert per_point[10_000]["speedup"] >= 1.2, per_point
        assert totals["looped"] / totals["ensemble"] >= 2.0, per_point
        assert batched_loop_bound_speedup >= 4.0, per_point
