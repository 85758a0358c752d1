"""Same-machine A/B of the benchmark: a base revision against this checkout.

Runs ``perfbench/run.py`` on ``--base`` and on the working tree this script
sits in, in alternating pairs on one machine, and turns the end-to-end
bounds of ``BENCHMARK.json`` into a verdict per workload and metric::

    python3 scripts/perf_ab.py --base origin/main
    python3 scripts/perf_ab.py --base HEAD~1 --workloads per_agent --pairs 8 --seconds 10

The base revision is checked out with ``git worktree add --detach`` into a
temporary directory, and this checkout's ``perfbench/`` and
``BENCHMARK.json`` are copied over it, so both sides run one benchmark
definition against their own ``src/``.  Pair ``i`` runs seed ``i + 1`` on
both sides, the base first on even pairs and the working tree first on odd
ones.

A row's verdict:

* ``regression``: the working tree's median is worse than the base's by
  more than the metric's ``bound`` (relative) and by more than the base's
  quartile distance (Q3 - Q1);
* ``gain``: the working tree wins at least nine tenths of the pairs (ties
  count for neither side) and its median is better by more than the base's
  quartile distance;
* ``unresolved``: neither, and the base's quartile distance exceeds
  ``bound`` times the base's median, so the runs cannot show a regression
  of that size;
* ``no change``: anything else.

One more row per workload compares the share of failed operations; a
larger share on the working tree is a ``regression``.

Prints the table as markdown.  Exit status: 0 without a regression, 1 with
one, 2 when a run fails or prints no result line (no verdict then).  Uses
the standard library only and never imports the package under test.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterator

HEAD = Path(__file__).resolve().parent.parent
#: Wins out of pairs a gain needs.
GAIN_SHARE = 0.9


class RunError(RuntimeError):
    """A benchmark run failed or printed no result line."""


@contextlib.contextmanager
def base_checkout(head: Path, rev: str) -> Iterator[Path]:
    """``rev`` in a temporary worktree of ``head``, with head's benchmark definition.

    The worktree is removed on every way out of the ``with`` block.
    """
    workdir = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    tree = workdir / "base"
    try:
        subprocess.run(
            ["git", "-C", str(head), "worktree", "add", "--detach", str(tree), rev],
            check=True,
            capture_output=True,
            text=True,
        )
        shutil.rmtree(tree / "perfbench", ignore_errors=True)
        shutil.copytree(
            head / "perfbench",
            tree / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy2(head / "BENCHMARK.json", tree / "BENCHMARK.json")
        yield tree
    finally:
        subprocess.run(
            ["git", "-C", str(head), "worktree", "remove", "--force", str(tree)],
            capture_output=True,
        )
        shutil.rmtree(workdir, ignore_errors=True)
        subprocess.run(["git", "-C", str(head), "worktree", "prune"], capture_output=True)


def parse_result(stdout: str) -> dict[str, Any]:
    """The JSON object on the last line of a run's standard output."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunError("printed no result line") from None
    if not isinstance(result, dict) or not {"metrics", "attempted", "failed"} <= result.keys():
        raise RunError(f"printed no result line (last line: {lines[-1][:200]!r})")
    return result


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One ``perfbench/run.py --trace 0`` run in ``tree``; its result line."""
    command = [
        sys.executable,
        str(tree / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", f"{seconds:g}",
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        raise RunError(f"exited with code {done.returncode}: {' | '.join(tail)}")
    return parse_result(done.stdout)


def quartile_distance(values: list[float]) -> float:
    """Q3 - Q1 of ``values`` (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def metric_row(metric: dict[str, Any], base: list[float], head: list[float]) -> dict[str, Any]:
    """Medians, wins, base quartile distance and verdict of one metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base_median, head_median = statistics.median(base), statistics.median(head)
    worse_by = sign * (head_median - base_median)
    spread = quartile_distance(base)
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    allowed = metric["bound"] * abs(base_median)
    if worse_by > allowed and worse_by > spread:
        verdict = "regression"
    elif wins >= GAIN_SHARE * len(base) and -worse_by > spread:
        verdict = "gain"
    elif spread > allowed:
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {
        "metric": metric["name"],
        "unit": metric["unit"],
        "base": base_median,
        "head": head_median,
        "change": (head_median - base_median) / base_median if base_median else 0.0,
        "wins": f"{wins}/{len(base)}",
        "spread": spread,
        "verdict": verdict,
    }


def failure_row(base_runs: list[dict[str, Any]], head_runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Each side's failed-operation share; a larger share on head is a regression."""

    def share(runs: list[dict[str, Any]]) -> tuple[int, int]:
        return sum(run["failed"] for run in runs), sum(run["attempted"] for run in runs)

    (base_failed, base_tried), (head_failed, head_tried) = share(base_runs), share(head_runs)
    worse = head_failed * max(base_tried, 1) > base_failed * max(head_tried, 1)
    return {
        "metric": "failed operations",
        "unit": "",
        "base": f"{base_failed}/{base_tried}",
        "head": f"{head_failed}/{head_tried}",
        "change": None,
        "wins": "",
        "spread": None,
        "verdict": "regression" if worse else "no change",
    }


def workload_rows(
    spec: dict[str, Any], base_runs: list[dict[str, Any]], head_runs: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """One row per end-to-end metric of ``spec``, then the failed-operation row."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [run["metrics"][name]["value"] for run in base_runs]
        head = [run["metrics"][name]["value"] for run in head_runs]
        rows.append(metric_row(metric, base, head))
    rows.append(failure_row(base_runs, head_runs))
    return rows


def exit_status(rows: list[dict[str, Any]]) -> int:
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


def markdown(table: list[tuple[str, dict[str, Any]]]) -> str:
    """``(workload, row)`` pairs as a markdown table."""

    def number(value: Any) -> str:
        return value if isinstance(value, str) else f"{value:.4g}"

    lines = [
        "| workload | metric | base | head | change | head wins | base Q3-Q1 | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, row in table:
        unit = f" ({row['unit']})" if row["unit"] else ""
        change = "" if row["change"] is None else f"{row['change']:+.1%}"
        spread = "" if row["spread"] is None else number(row["spread"])
        lines.append(
            f"| {workload} | {row['metric']}{unit} | {number(row['base'])} | "
            f"{number(row['head'])} | {change} | {row['wins']} | {spread} | {row['verdict']} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument(
        "--workloads", default=",".join(known), help="comma-separated (default: all)"
    )
    parser.add_argument("--pairs", type=int, default=10, help="base/head pairs (default: 10)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help=f"length of each run (default: {spec['run_seconds']})",
    )
    args = parser.parse_args(argv)
    workloads = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    if not workloads or args.pairs < 1 or args.seconds <= 0:
        parser.error("needs a workload, --pairs >= 1 and --seconds > 0")
    runs: dict[str, dict[str, list[dict[str, Any]]]] = {
        side: {workload: [] for workload in workloads} for side in ("base", "head")
    }
    try:
        with base_checkout(HEAD, args.base) as base_tree:
            trees = {"base": base_tree, "head": HEAD}
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for workload in workloads:
                    for side in order:
                        try:
                            result = run_once(trees[side], workload, pair + 1, args.seconds)
                        except RunError as exc:
                            raise RunError(f"{side} {workload} seed {pair + 1}: {exc}") from None
                        runs[side][workload].append(result)
                        values = " ".join(
                            f"{name}={metric['value']:.4g}"
                            for name, metric in result["metrics"].items()
                        )
                        print(
                            f"pair {pair + 1}/{args.pairs} {workload} {side}: {values} "
                            f"failed={result['failed']}/{result['attempted']}",
                            file=sys.stderr,
                        )
    except subprocess.CalledProcessError as exc:
        print(f"perf_ab: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    except (RunError, OSError) as exc:
        print(f"perf_ab: {exc}", file=sys.stderr)
        return 2

    table = [
        (workload, row)
        for workload in workloads
        for row in workload_rows(spec, runs["base"][workload], runs["head"][workload])
    ]
    print(
        f"Base `{args.base}` against the working tree: {args.pairs} alternating pairs "
        f"of {args.seconds:g}-second runs.\n"
    )
    print(markdown(table))
    return exit_status([row for _, row in table])


if __name__ == "__main__":
    # A cancelled job still removes its worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
