"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload per_agent --seed 1 --seconds 30 --trace 0

Runs ``SETUP_PROBES`` set-up-only interpreters and then the measuring
interpreter (``workload.py``), each a fresh process, so ``setup_s`` and
``peak_rss_mb`` belong to this workload alone.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer ones.
The last line of standard output is the result; the full report (latency
percentiles, provenance, layer shares) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
#: Every process must be gone before this many seconds.
DEADLINE_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(args: list[str], env: dict[str, str], timeout: float) -> None:
    """Run ``workload.py`` in its own process group; kill the group on timeout."""
    if timeout <= 0:
        raise TimeoutError("no time left for another process")
    command = [sys.executable, str(HERE / "workload.py"), *args, "--launched-ns"]
    command.append(str(time.perf_counter_ns()))
    # Child output goes to stderr: standard output carries only the result.
    child = subprocess.Popen(command, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        # Reap anything the child left behind in its group (pool workers).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"program source not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".perfbench" / "results"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    # Git must not look above the checkout for a repository to describe.
    env = dict(os.environ, TMPDIR=str(workdir / "tmp"), GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", str(workdir),
        "--spans-out", str(results / f"{tag}-spans.json.gz"),
    ]

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setups = []
        for probe in range(SETUP_PROBES - 1):
            out = workdir / f"setup-{probe}.json"
            run_child([*common, "--seconds", "0", "--setup-only", "--out", str(out)], env, remaining())
            setups.append(json.loads(out.read_text()))
        out = workdir / "measure.json"
        run_child(
            [
                *common,
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(out),
            ],
            env,
            remaining(),
        )
        report = json.loads(out.read_text())
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return fail(f"{args.workload}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append({key: report[key] for key in setups[0]})
    measured = dict(report["measured"], setup_s=statistics.median(setup["setup_s"] for setup in setups))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None:
            if not args.trace:
                return fail(f"{args.workload} did not measure {metric['name']}")
            value = 0.0  # a layer this workload never enters
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    report.update(seed=args.seed, workload=args.workload, trace=args.trace, setup_samples=setups)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"details": report["details"], "provenance": report["provenance"], "failures": report["failures"]}))
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
