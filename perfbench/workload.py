"""Run one workload in a fresh interpreter and write its measurements as JSON.

Started by ``run.py``, never by hand: ``--launched-ns`` is the parent's
``perf_counter_ns`` just before the process was started (the clock is
system-wide on Linux), so the set-up time covers interpreter start,
imports, input building and, for ``serve_mixed``, the service and cache.
With ``--setup-only`` the process stops once it is ready to run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def percentile_summary(values: list[float]) -> dict[str, Any]:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    summary: dict[str, Any] = {"samples": count}
    if not count:
        return summary
    summary["p50"] = statistics.median(ordered)
    # Below 21 samples that rank is not above the median: fall back to the max.
    rank = count - 11 if count > 20 else count - 1
    summary["tail"] = ordered[rank]
    summary["tail_percentile"] = round(100 * (rank + 1) / count, 1)
    return summary


#: Passes every run makes, plain and (in a traced run) traced alike, before
#: it adds more only while they fit in ``--seconds``.
MIN_PASSES = 2

#: What ``workloads.reference_seconds`` took on the unloaded 2-core x86 box
#: the benchmark was built on.  A fixed scale: any constant would do.
REFERENCE_NOMINAL_S = 0.030


def adjusted_pass_seconds(passes: list[Any]) -> float:
    """One pass's seconds at the host speed where the reference takes ``REFERENCE_NOMINAL_S``.

    Other tenants of a shared host slow everything running at the same
    time, for seconds to minutes and by up to 2x, and CPU time slows with
    wall time.  The reference computation timed between the operations
    slows with them, so the ratio of the two stays put across runs made
    at different loads.  Its mean over the run is the host's speed while
    the run lasted; a single 30 ms sample is too short to say how fast the
    operation next to it ran.  Each position of the pass keeps its own
    median, so a change that slows one request or seed shows, and a burst
    of load in one pass drops out; a median does not drift with the number
    of passes a faster program fits in.
    """
    references = [seconds for done in passes for seconds in done.reference_s]
    pass_seconds = sum(
        statistics.median(done.ops[i].seconds for done in passes) for i in range(len(passes[0].ops))
    )
    return pass_seconds * REFERENCE_NOMINAL_S / statistics.fmean(references)


def provenance() -> dict[str, Any]:
    from repro.bench.suite import git_metadata, machine_metadata
    from repro.kernels import availability as jit_availability
    from repro.serve.availability import availability as serve_availability

    jit = jit_availability()
    serve = serve_availability()
    return {
        # Outside a git checkout (run.py stops git at the checkout root)
        # every git field is None.
        "git": git_metadata(),
        **machine_metadata(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numba_available": jit.enabled,
        "numba_reason": jit.reason,
        "fastapi_available": serve.enabled,
        "fastapi_reason": serve.reason,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child (Linux kB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def layer_metrics(tracer: Any, passes: int) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-pass per-layer numbers from the recorded spans."""
    import tracer as tracing

    names = sorted(tracer.names, key=tracer.names.get)
    self_s, unattributed, wall = tracing.self_times(tracer.spans, names)
    calls: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        calls[names[span[1]]] += 1
    metrics: dict[str, float] = {}
    for name, count in calls.items():
        if name == tracing.ROOT_SPAN:
            continue
        metrics[f"{name}.calls"] = count / passes
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    for key, value in tracer.counters.items():
        metrics[key] = value / passes
    steps = calls.get("engine.counts.step_parallel_round", 0)
    if steps:
        metrics["engine.counts.occupied_states"] = (
            tracer.counters["engine.counts.step_parallel_round.occupied_states_sum"] / steps
        )
    metrics["trace.unattributed_s"] = unattributed / passes
    metrics["trace.wall_s"] = wall / passes
    attributed = sum(self_s.values())
    groups: dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        groups[".".join(name.split(".")[:2])] += seconds
    details = {
        "spans": len(tracer.spans),
        "identity_residual_s": (wall - attributed - unattributed) / passes,
        "layer_share_of_wall": {group: seconds / wall for group, seconds in sorted(groups.items())},
        "shard_workers": "worker-process spans are shipped back and scaled to their share of the parallel region's wall time",
    }
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    raw_setup_s = (time.perf_counter_ns() - args.launched_ns) / 1e9
    # The host's speed just after set-up; the first reference is cold.
    setup_reference_s = statistics.median(workloads.reference_seconds() for _ in range(3))
    setup = {
        "setup_s": raw_setup_s * REFERENCE_NOMINAL_S / setup_reference_s,
        "raw_setup_s": raw_setup_s,
        "setup_reference_s": setup_reference_s,
    }
    if args.setup_only:
        workload.close()
        Path(args.out).write_text(json.dumps(setup))
        return 0

    import tracer as tracing

    workload.warmup()
    workloads.reference_seconds()
    tracer = None
    if args.trace:
        tracer = tracing.ACTIVE = tracing.Tracer()

    def untimed(body: Any) -> Any:
        return body()

    plain: list[Any] = []
    traced: list[Any] = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) <= len(plain):
            tracer.install()
            try:
                done = workload.run_pass(tracer.root, tracer)
            finally:
                tracer.uninstall()
            traced.append(done)
        else:
            done = workload.run_pass(untimed)
            plain.append(done)
        # After the first passes, start another pass (or traced/untraced
        # pair) only if at least half of it falls within --seconds, so a run
        # measures --seconds give or take half a pass.
        step = done.wall_s if tracer is None else 2 * done.wall_s
        balanced = tracer is None or len(traced) == len(plain)
        enough = len(plain) >= MIN_PASSES
        if enough and balanced and time.perf_counter() - start + step / 2 > args.seconds:
            break
    workload.close()

    ops = [op for done in plain + traced for op in done.ops]
    by_kind: dict[str, list[float]] = defaultdict(list)
    for done in plain:
        for op in done.ops:
            by_kind[op.kind].append(op.seconds)
    queue_waits = [op.info["queue_wait_s"] for done in plain for op in done.ops if "queue_wait_s" in op.info]
    measured: dict[str, float] = {
        "adjusted_wall_s": adjusted_pass_seconds(plain),
        "peak_rss_mb": peak_rss_mb(),
    }
    details: dict[str, Any] = {
        "pass_walls_s": [done.wall_s for done in plain],
        "pass_wall_median_s": statistics.median(done.wall_s for done in plain),
        "op_seconds": [[op.seconds for op in done.ops] for done in plain],
        "pass_reference_s": [done.reference_s for done in plain],
        "op_names": [f"{op.kind}:{op.name}" for op in plain[0].ops],
        "latency_s": {kind: percentile_summary(values) for kind, values in sorted(by_kind.items())},
        "error_rate": sum(not op.ok for op in ops) / len(ops),
    }
    if args.workload == "serve_mixed":
        hits = percentile_summary(by_kind["hit"])
        misses = percentile_summary(by_kind["miss"])
        measured.update(
            {
                "serve.hit_latency_p50_ms": hits["p50"] * 1e3,
                "serve.hit_latency_tail_ms": hits["tail"] * 1e3,
                "serve.miss_latency_p50_s": misses["p50"],
                "serve.miss_latency_tail_s": misses["tail"],
                "serve.jobs.queue_wait_s": sum(queue_waits) / len(plain),
            }
        )
    if tracer is not None:
        layers, trace_details = layer_metrics(tracer, len(traced))
        measured.update(layers)
        measured["trace.overhead_frac"] = adjusted_pass_seconds(traced) / measured["adjusted_wall_s"] - 1
        details["trace"] = trace_details
        details["traced_pass_walls_s"] = [done.wall_s for done in traced]
        tracer.save(args.spans_out)
    report = {
        **setup,
        "measured": measured,
        "details": details,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "failures": sorted({op.reason for op in ops if not op.ok})[:20],
        # Engine chosen and nominal work n*T*trials per computed operation.
        "points": sorted(
            {(op.name, json.dumps(op.info["engines"]), op.info["nominal_work"]) for op in ops if "engines" in op.info}
        ),
        "provenance": provenance(),
    }
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
