"""Counts-engine benchmarks: the O(|Q|^2)-per-step claim, measured.

Two workloads, recorded as case dicts (written to
``$REPRO_BENCH_DIR/BENCH_counts.json`` when set):

* **speedup vs batched** — seconds per parallel-time step of the counts
  engine vs the batched engine on the dynamic-counting protocol at
  ``n = 10^6``.  The counts cost is amortized over a realistic horizon
  because its first ~30 steps traverse the warm-up state-space peak; the
  batched engine's per-step cost is constant, so a short probe suffices.
* **per-step flatness** — steady-state (post-warm-up) seconds per step of
  the counts engine at ``n = 10^4`` vs ``n = 10^7``.  The state count
  |Q| grows only logarithmically with ``n``, so the per-step cost must be
  measurably flat across three orders of magnitude of population size.

As everywhere in this suite, the wall-clock assertions gate on
``REPRO_BENCH_ASSERT`` (set by the dedicated CI bench job) so shared-runner
noise can never fail a plain test run.
"""

from __future__ import annotations

import os

from conftest import measure

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.registry import make_engine

#: Suite file the ``suite_cases`` collector writes under ``REPRO_BENCH_DIR``.
BENCH_SUITE_FILENAME = "BENCH_counts.json"

#: (population size, batched steps, counts steps) per effort level.  The
#: batched engine's per-step cost is flat in the horizon, so it gets a short
#: probe; the counts engine runs long enough to amortize its warm-up.
SPEEDUP = {
    "quick": (1_000_000, 8, 100),
    "default": (1_000_000, 12, 200),
    "paper": (10_000_000, 4, 200),
}

#: (small n, huge n) for the per-step flatness probe, plus how many steps to
#: skip as warm-up and how many to time at steady state.
FLATNESS = {
    "quick": (10_000, 10_000_000),
    "default": (10_000, 10_000_000),
    "paper": (10_000, 100_000_000),
}
FLATNESS_WARMUP_STEPS = 30
FLATNESS_TIMED_STEPS = 20


def test_bench_counts_speedup_vs_batched(suite_cases, effort):
    """Counts vs batched on dynamic counting at n = 10^6 (10^7 at paper).

    Measured margins (quick effort, 2-core box): the batched engine, a
    one-row ensemble, spends ~0.12-0.14 s per parallel step at ``n = 10^6``
    (per-agent work), the counts engine ~0.02 s amortized (~0.007 s at
    steady state) — about 6-8x (6.0-6.7x in four runs after the one-gather
    kernel, 6.0-8.4x in four before it), below the asserted 10x floor.
    The quiet-step rule does not reach this probe: its 8 batched steps
    start from the initial configuration and none is quiet, so they pay
    only the certificate (12-14 ms at the first step, where every ``max``
    is 1, and ~0.6 ms per later step).  Re-measured with it: 7.7-9.4x in
    four runs against 6.5-8.1x for the engine without it (alternating, on
    a box whose per-step times spread by a third); interleaved in one
    process, 8 steps read 0.119 s per step with the certificate and 0.124 s
    with it forced off (medians of five).
    Before the batched engine became a one-row ensemble it spent ~0.25-0.35
    s per step and the ratio read 12-16x; ROADMAP's counts item tracks the
    gap.
    """
    n, batched_steps, counts_steps = SPEEDUP[effort]

    def run_batched() -> None:
        make_engine("batched", DynamicSizeCounting(), n, seed=1).run(batched_steps)

    def run_counts() -> None:
        make_engine("counts", DynamicSizeCounting(), n, seed=1).run(counts_steps)

    batched_timing = measure(run_batched, warmup=0, repeats=1)
    counts_timing = measure(run_counts, warmup=0, repeats=1)
    batched_per_step = min(batched_timing) / batched_steps
    counts_per_step = min(counts_timing) / counts_steps
    speedup = batched_per_step / counts_per_step

    shared_extra = {
        "population_size": n,
        "batched_steps": batched_steps,
        "counts_steps": counts_steps,
        "batched_seconds_per_step": batched_per_step,
        "counts_seconds_per_step": counts_per_step,
        "per_step_speedup": speedup,
    }
    suite_cases.append(
        dict(
            case_id=f"counts-speedup[engine=batched,n={n}]@{effort}",
            scenario="counts-speedup",
            engine="batched",
            effort=effort,
            seconds=[min(batched_timing)],
            work_interactions=n * batched_steps,
            extra=shared_extra,
        )
    )
    suite_cases.append(
        dict(
            case_id=f"counts-speedup[engine=counts,n={n}]@{effort}",
            scenario="counts-speedup",
            engine="counts",
            effort=effort,
            seconds=[min(counts_timing)],
            work_interactions=n * counts_steps,
            extra=shared_extra,
        )
    )

    assert batched_per_step > 0 and counts_per_step > 0
    if os.environ.get("REPRO_BENCH_ASSERT"):
        assert speedup >= 10.0, shared_extra


def test_bench_counts_per_step_flat_in_population_size(suite_cases, effort):
    """Steady-state per-step seconds at n = 10^4 vs n = 10^7.

    The occupied state count settles around 400 at 10^4 and 1000 at 10^7,
    so the steady-state per-step cost grows ~3x while the population grows
    1000x; asserted with a generous 10x allowance.
    """
    per_step: dict[int, float] = {}
    for n in FLATNESS[effort]:
        engine = make_engine("counts", DynamicSizeCounting(), n, seed=1)
        for _ in range(FLATNESS_WARMUP_STEPS):
            engine.step_parallel_round()

        def steady(engine=engine) -> None:
            for _ in range(FLATNESS_TIMED_STEPS):
                engine.step_parallel_round()

        timing = measure(steady, warmup=0, repeats=1)
        per_step[n] = min(timing) / FLATNESS_TIMED_STEPS

    small, huge = FLATNESS[effort]
    extra = {
        "seconds_per_step": {str(n): s for n, s in per_step.items()},
        "population_ratio": huge / small,
        "per_step_ratio": per_step[huge] / per_step[small],
        "warmup_steps": FLATNESS_WARMUP_STEPS,
        "timed_steps": FLATNESS_TIMED_STEPS,
    }
    suite_cases.append(
        dict(
            case_id=f"counts-flatness[n={small}..{huge}]@{effort}",
            scenario="counts-flatness",
            engine="counts",
            effort=effort,
            seconds=[sum(per_step.values()) * FLATNESS_TIMED_STEPS],
            work_interactions=(small + huge) * FLATNESS_TIMED_STEPS,
            extra=extra,
        )
    )

    assert all(s > 0 for s in per_step.values())
    if os.environ.get("REPRO_BENCH_ASSERT"):
        # 1000x more agents may cost at most 10x per step (measured ~3x).
        assert per_step[huge] <= 10.0 * per_step[small], extra
