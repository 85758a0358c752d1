"""Compiled-kernel benchmarks: the jit backend's speedup, measured and gated.

One loop-bound workload — the fig3 shape (small-to-medium populations x
many trials x a real horizon), where per-batch Python overhead dominates
the NumPy kernels — measured four ways on the dynamic-counting protocol:

* ``looped batched`` — the plain batched engine, trials run one at a time:
  the loop-bound configuration all speedups are quoted against.
* ``plain ensemble`` — the stacked NumPy path (``fig3[engine=ensemble]``).
* ``jit batched`` / ``jit ensemble`` — the same two engines with the fused
  compiled kernels of :mod:`repro.kernels`.

Gated margins (``REPRO_BENCH_ASSERT``, skipped when numba is unavailable —
the no-numba CI leg proves the *fallback*, this module proves the *win*):

* jit ensemble >= 10x over looped batched.  The stacked NumPy path alone
  measures 11-17x here; the compiled kernels remove the remaining
  gather/scatter temporaries and rare-branch lane compression on top.
* jit batched >= 2x over looped batched.  Same-engine speedup is bounded
  by Amdahl: pair drawing and the sub-batch loop stay on the NumPy side,
  so only the kernel body (~3/4 of the per-step cost) compiles away.
* jit ensemble >= 1.2x over plain ensemble — compiled must beat
  interpreted on its own engine, else the backend is pointless.

Without ``REPRO_BENCH_ASSERT`` (or without numba) the module still runs
and records honest rows — on a numba-less machine the jit cases measure
the logged NumPy fallback.  Rows land in
``$REPRO_BENCH_DIR/BENCH_jit.json``.
"""

from __future__ import annotations

import os

import pytest
from conftest import measure

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.registry import make_engine
from repro.kernels import availability, compile_warmup

#: Suite file the ``suite_cases`` collector writes under ``REPRO_BENCH_DIR``.
BENCH_SUITE_FILENAME = "BENCH_jit.json"

#: (population sizes, trials, parallel-time horizon) per effort level — the
#: fig3 shape, loop-bound at quick: the smallest populations make per-batch
#: Python overhead the dominant cost, which is exactly what the compiled
#: kernels remove.
WORKLOAD = {
    "quick": ((10, 100, 1000), 16, 60),
    "default": ((10, 100, 1000, 3162), 32, 120),
    "paper": ((10, 100, 1000, 3162, 10000), 64, 200),
}

#: Gated floors (see module docstring for why each is where it is).
JIT_ENSEMBLE_VS_LOOPED_FLOOR = 10.0
JIT_BATCHED_VS_LOOPED_FLOOR = 2.0
JIT_ENSEMBLE_VS_PLAIN_FLOOR = 1.2


def _run_batched_looped(ns, trials, horizon, *, jit):
    for n in ns:
        for trial in range(trials):
            make_engine(
                "batched", DynamicSizeCounting(), n, seed=100 + trial, jit=jit
            ).run(horizon)


def _run_ensemble(ns, trials, horizon, *, jit):
    for n in ns:
        make_engine(
            "ensemble", DynamicSizeCounting(), n, seed=100, trials=trials, jit=jit
        ).run(horizon)


def test_bench_jit_speedup(suite_cases, effort):
    """Four-way measurement of the loop-bound fig3 shape, jit floors gated."""
    ns, trials, horizon = WORKLOAD[effort]
    compiled = availability().enabled

    looped = min(measure(lambda: _run_batched_looped(ns, trials, horizon, jit=False)))
    plain_ensemble = min(measure(lambda: _run_ensemble(ns, trials, horizon, jit=False)))
    # compile_warmup runs once, before the first jit measurement, so njit
    # compilation lands in compile_seconds instead of a sample.
    compile_seconds = compile_warmup()
    jit_batched = min(measure(lambda: _run_batched_looped(ns, trials, horizon, jit=True)))
    jit_ensemble = min(measure(lambda: _run_ensemble(ns, trials, horizon, jit=True)))

    work = sum(n * horizon for n in ns) * trials
    status = availability()
    shared_extra = {
        "population_sizes": list(ns),
        "trials": trials,
        "parallel_time": horizon,
        "jit_available": status.enabled,
        "jit_reason": status.reason,
        "looped_batched_seconds": looped,
        "plain_ensemble_seconds": plain_ensemble,
        "jit_batched_seconds": jit_batched,
        "jit_ensemble_seconds": jit_ensemble,
        "jit_batched_speedup_vs_looped": looped / jit_batched,
        "jit_ensemble_speedup_vs_looped": looped / jit_ensemble,
        "jit_ensemble_speedup_vs_plain": plain_ensemble / jit_ensemble,
    }

    for case_id, engine, seconds, jit_flag in (
        (f"jit-speedup[engine=batched]@{effort}", "batched", looped, False),
        (f"jit-speedup[engine=ensemble]@{effort}", "ensemble", plain_ensemble, False),
        (f"jit-speedup[engine=batched,jit=on]@{effort}", "batched", jit_batched, True),
        (
            f"jit-speedup[engine=ensemble,jit=on]@{effort}",
            "ensemble",
            jit_ensemble,
            True,
        ),
    ):
        suite_cases.append(
            dict(
                case_id=case_id,
                scenario="jit-speedup",
                engine=engine,
                effort=effort,
                seconds=[seconds],
                work_interactions=work,
                compile_seconds=compile_seconds if jit_flag else None,
                extra=shared_extra,
            )
        )

    assert looped > 0 and plain_ensemble > 0
    assert jit_batched > 0 and jit_ensemble > 0

    if not os.environ.get("REPRO_BENCH_ASSERT"):
        return
    if not compiled:
        pytest.skip(f"compiled kernels unavailable ({status.reason})")
    assert (
        shared_extra["jit_ensemble_speedup_vs_looped"]
        >= JIT_ENSEMBLE_VS_LOOPED_FLOOR
    ), shared_extra
    assert (
        shared_extra["jit_batched_speedup_vs_looped"] >= JIT_BATCHED_VS_LOOPED_FLOOR
    ), shared_extra
    assert (
        shared_extra["jit_ensemble_speedup_vs_plain"] >= JIT_ENSEMBLE_VS_PLAIN_FLOOR
    ), shared_extra
