"""Checkpointing overhead benchmark for long-horizon runs.

Times the same sharded workload twice — plain, and with shard
checkpoints written at the default cadence — plus a third case resuming
an already-finished run (the idempotent fast path, which must cost far
less than recomputing).  Timing uses ``conftest.measure``; the cases go to
``$REPRO_BENCH_DIR/BENCH_checkpoint.json`` when set.

Checkpointing is only worth having if it is effectively free at a sane
cadence: the <5% wall-clock overhead gate is asserted only in the
dedicated bench job (``REPRO_BENCH_ASSERT=1``), so timing noise on shared
runners cannot fail a functional run, but a regression that makes every
segment boundary expensive (say, re-pickling the whole series) is caught
where timing is trusted.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

from conftest import measure

from repro.engine.options import ExecutionOptions
from repro.experiments.figures import run_estimate_trace

#: Suite file the ``suite_cases`` collector writes under ``REPRO_BENCH_DIR``.
BENCH_SUITE_FILENAME = "BENCH_checkpoint.json"

#: Loop-bound workload per effort level: (n, trials, parallel_time,
#: snapshot_every, checkpoint_every).  The cadence spans a couple of
#: trials, so the run writes real checkpoints (several per shard) with
#: hundreds of milliseconds of compute between writes — the regime
#: checkpointing is for.  A long-horizon run checkpoints every minutes of
#: compute; a cadence of several writes per 10ms trial would measure the
#: filesystem, not the subsystem.
WORKLOADS = {
    "quick": (500, 8, 40, 2, 80),
    "default": (500, 32, 60, 2, 120),
    "paper": (1_000, 32, 100, 2, 200),
}

MAX_OVERHEAD = 0.05


def test_bench_checkpoint_overhead(suite_cases, effort):
    n, trials, parallel_time, snapshot_every, checkpoint_every = WORKLOADS[effort]

    def run(**knobs):
        return run_estimate_trace(
            n,
            parallel_time,
            trials=trials,
            seed=1,
            snapshot_every=snapshot_every,
            # Plain and checkpointed runs share the workers=1 shard plan.
            options=ExecutionOptions(engine="sequential", workers=1, **knobs),
        )

    tmp = Path(tempfile.mkdtemp(prefix="bench-checkpoint-"))
    try:
        plain = None
        checkpointed = None
        resumed = None

        def run_plain():
            nonlocal plain
            plain = run()

        def run_checkpointed():
            nonlocal checkpointed
            shutil.rmtree(tmp / "ckpt", ignore_errors=True)
            checkpointed = run(checkpoint_every=checkpoint_every, checkpoint_dir=tmp / "ckpt")

        def run_resumed():
            nonlocal resumed
            resumed = run(resume_from=tmp / "ckpt")

        # The overhead gate compares two minima a few percent apart, so a
        # single cold-start sample per side would gate on scheduler noise;
        # min-of-3 after a warmup converges on the systematic cost.
        plain_timing = measure(run_plain, warmup=1, repeats=3)
        ckpt_timing = measure(run_checkpointed, warmup=1, repeats=3)
        resume_timing = measure(run_resumed, warmup=0, repeats=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # The durability contract, re-checked at bench scale: checkpointing and
    # resuming change wall-clock only, never results.
    reference = (plain.minimum, plain.median, plain.maximum)
    assert (checkpointed.minimum, checkpointed.median, checkpointed.maximum) == reference
    assert (resumed.minimum, resumed.median, resumed.maximum) == reference

    overhead = min(ckpt_timing) / min(plain_timing) - 1.0
    entry = {
        "n": n,
        "trials": trials,
        "parallel_time": parallel_time,
        "snapshot_every": snapshot_every,
        "checkpoint_every": checkpoint_every,
        "plain_seconds": min(plain_timing),
        "checkpointed_seconds": min(ckpt_timing),
        "resume_finished_seconds": min(resume_timing),
        "overhead_fraction": overhead,
    }
    work = n * parallel_time * trials
    for case, timing in (
        ("plain", plain_timing),
        ("checkpointed", ckpt_timing),
        ("resume-finished", resume_timing),
    ):
        suite_cases.append(
            dict(
                case_id=f"checkpoint:{case}@{effort}",
                scenario="checkpoint-overhead",
                engine="sequential",
                workers=1,
                effort=effort,
                seconds=[min(timing)],
                work_interactions=work,
                extra=entry,
            )
        )

    # Functional runs only check that everything completed and was timed;
    # the wall-clock gate lives in the dedicated bench job.
    assert min(plain_timing) > 0 and min(ckpt_timing) > 0

    # Regression guard: at the default cadence, checkpointing must cost
    # under 5% wall-clock, and resuming a finished run must be much
    # cheaper than recomputing it.
    if os.environ.get("REPRO_BENCH_ASSERT"):
        assert overhead < MAX_OVERHEAD, entry
        assert min(resume_timing) < 0.5 * min(plain_timing), entry
