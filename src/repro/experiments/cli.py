"""Command-line entry point: ``repro-experiments``.

The CLI is a thin shell over the scenario registry
(:mod:`repro.scenarios`): every registered scenario — the paper's nine
figures/tables and the adversarial catalog — can be listed, run, and swept
over parameter grids::

    repro-experiments list
    repro-experiments run fig4 --effort quick --output results/
    repro-experiments run all --effort quick
    repro-experiments run oscillate --engine auto
    repro-experiments sweep fig4 --set keep=50,200 --set drop_time=300
    repro-experiments fuzz --seed 7 --count 25

Engine, effort and execution options are validated for *every* selected scenario
before any simulation starts, so a bad flag fails in milliseconds with a
one-line error instead of a traceback halfway through a sweep.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from repro.engine.checkpoint import CheckpointInterrupted
from repro.engine.errors import ConfigurationError, EngineError
from repro.engine.options import ExecutionOptions
from repro.engine.registry import engine_names, validate_engine_request
from repro.experiments.base import ExperimentResult
from repro.experiments.config import list_presets
from repro.scenarios.registry import get_scenario, has_scenario, iter_scenarios, scenario_names
from repro.scenarios.runner import (
    resolve_preset,
    run_scenario,
    run_sweep,
    validate_executor_options,
)
from repro.scenarios.spec import SweepSpec

__all__ = ["main", "build_parser"]


def _parse_workers(text: str) -> int | str:
    """argparse type for ``--workers``: a positive integer or ``auto``."""
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {value}")
    return value


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--effort",
        default="quick",
        choices=("quick", "default", "paper"),
        help="Preset size: quick (seconds), default (minutes), paper (original scale).",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="Directory to persist CSV/JSON results into (omit to only print).",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=engine_names() + ("auto",),
        help=(
            "Execution engine (one of: "
            + ", ".join(engine_names())
            + ") or 'auto' to pick the best engine per workload; omit to use "
            "each scenario's default."
        ),
    )
    parser.add_argument(
        "--workers",
        default=None,
        type=_parse_workers,
        metavar="N|auto",
        help=(
            "Shard trials (and sweep points) over this many worker processes; "
            "'auto' uses the CPU count (capped).  Results are bit-identical "
            "for any worker count; omit for the serial path."
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        default=None,
        type=int,
        metavar="T",
        help=(
            "Checkpoint long runs every T parallel time units (a multiple of "
            "the snapshot cadence); requires --checkpoint-dir or --resume-from."
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "Directory for crash-recovery checkpoints (one subdirectory per "
            "scenario/point); defaults to --resume-from when resuming."
        ),
    )
    parser.add_argument(
        "--resume-from",
        default=None,
        metavar="DIR",
        help=(
            "Resume an interrupted run from the checkpoints in DIR; the "
            "resumed run is bit-identical to an uninterrupted one.  The "
            "checkpoint cadence is recovered from the run's own manifests."
        ),
    )
    parser.add_argument(
        "--interrupt-after",
        default=None,
        type=int,
        metavar="N",
        help=(
            "Fault-injection testing knob: abort (exit code 3) after the N-th "
            "checkpoint write per shard, leaving valid checkpoints on disk "
            "for --resume-from."
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Run registered scenarios of 'Dynamic Size Counting in the "
            "Population Protocol Model' (Kaaser & Lohmann, PODC 2024): the "
            "paper's figures/tables plus adversarial workloads beyond them."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="Run one or more scenarios ('all' runs every registered scenario)."
    )
    run_parser.add_argument(
        "scenarios",
        nargs="+",
        metavar="scenario",
        help="Scenario name(s) from `repro-experiments list`, or 'all'.",
    )
    _add_common_arguments(run_parser)

    list_parser = subparsers.add_parser(
        "list", help="List registered scenarios, their presets and engines."
    )
    list_parser.add_argument(
        "--tag", default=None, help="Only show scenarios carrying this tag."
    )
    list_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "Machine-readable output: one JSON record per scenario (the same "
            "formatter that backs the serving layer's GET /scenarios)."
        ),
    )

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help=(
            "Generate random valid scenarios and assert cross-engine "
            "statistical conformance on each (seeded, deterministic)."
        ),
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0, help="Base seed; the same seed reproduces the same cases."
    )
    fuzz_parser.add_argument(
        "--count", type=int, default=25, help="Number of generated scenarios (default 25)."
    )
    fuzz_parser.add_argument(
        "--trials",
        type=int,
        default=16,
        metavar="N",
        help="Per-engine repetitions feeding each two-sample KS test (default 16).",
    )
    fuzz_parser.add_argument(
        "--engines",
        default=None,
        metavar="A,B[,...]",
        help=(
            "Comma-separated engines to compare, run exactly as given (default: "
            "batched,ensemble,counts, plus the exact sequential engine on cases "
            "that never hold more than 64 agents)."
        ),
    )
    fuzz_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_only",
        help="Only print the generated cases (name, family, workload, cache key); no simulation.",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="Run a scenario over a parameter grid."
    )
    sweep_parser.add_argument("scenario", help="Scenario name to sweep.")
    sweep_parser.add_argument(
        "--set",
        dest="axes",
        action="append",
        required=True,
        metavar="KEY=V1[,V2,...]",
        help=(
            "Sweep axis: a preset field (n, trials, parallel_time, seed), a "
            "protocol constant (tau1, k, ...), or a workload knob (keep, "
            "drop_time, period, ...).  Repeat for a grid."
        ),
    )
    _add_common_arguments(sweep_parser)

    return parser


def _parse_axis_value(text: str) -> Any:
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _parse_axes(entries: list[str]) -> dict[str, tuple[Any, ...]]:
    axes: dict[str, tuple[Any, ...]] = {}
    for entry in entries:
        key, separator, values = entry.partition("=")
        if not separator or not key or not values:
            raise ConfigurationError(
                f"invalid --set {entry!r}; expected KEY=V1[,V2,...]"
            )
        if key in axes:
            raise ConfigurationError(
                f"duplicate --set key {key!r}; list all values in one axis "
                f"(--set {key}=V1,V2,...)"
            )
        axes[key] = tuple(_parse_axis_value(value) for value in values.split(","))
    return axes


def _fail(message: str) -> int:
    print(f"repro-experiments: error: {message}", file=sys.stderr)
    return 2


def _checkpoint_subdir(root: str | None, name: str) -> str | None:
    """Per-scenario checkpoint directory (so `run a b` never mixes files)."""
    return None if root is None else str(Path(root) / name)


def _interrupted(name: str, exc: CheckpointInterrupted) -> int:
    print(
        f"[{name}] run interrupted after a checkpoint write ({exc}); "
        "continue it with --resume-from",
        file=sys.stderr,
    )
    return 3


def _shard_timing_lines(name: str, result: ExperimentResult) -> list[str]:
    """Per-point shard timing summary of one sharded run (empty if serial)."""
    timings = result.metadata.get("shard_timings")
    if not timings:
        return []
    workers = result.metadata.get("workers")
    lines = []
    for label, shards in timings.items():
        total = sum(entry["seconds"] for entry in shards)
        slowest = max(entry["seconds"] for entry in shards)
        lines.append(
            f"[{name}] {label}: {len(shards)} shard(s) x "
            f"{max(entry['trials'] for entry in shards)} trial(s), "
            f"slowest {slowest:.2f}s, shard-seconds {total:.2f}s "
            f"(workers={workers})"
        )
    return lines


def _print_result(
    name: str, result: ExperimentResult, elapsed: float | None, output: str | None
) -> None:
    print(result.table())
    for line in _shard_timing_lines(name, result):
        print(line)
    if elapsed is not None:
        print(f"[{name}] completed in {elapsed:.1f}s ({result.metadata.get('preset')} preset)")
        print()
    if output is not None:
        saved = result.save(output)
        print(f"[{name}] results written to {saved}")
        print()


def _cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        # Shared with GET /scenarios: one formatter, two transports.
        from repro.scenarios.listing import scenario_listing

        print(json.dumps(scenario_listing(tag=args.tag), indent=2, sort_keys=True))
        return 0
    efforts = list_presets()
    for spec in iter_scenarios():
        if args.tag is not None and args.tag not in spec.tags:
            continue
        available = ", ".join(efforts.get(spec.id, []))
        engine = spec.engine if spec.engine is not None else "auto"
        tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
        sharding = "trial-shards" if spec.executor is None else "serial-only"
        schedule = f"  schedule: {spec.schedule_kind}" if spec.schedule_kind else ""
        print(f"{spec.name}: {spec.description}{tags}")
        print(
            f"    efforts: {available or '(custom preset required)'}  "
            f"engine: {engine}  workers: {sharding}{schedule}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    run_all = "all" in args.scenarios
    selected: list[str] = []
    for name in args.scenarios:
        names = scenario_names() if name == "all" else [name]
        for candidate in names:
            if not has_scenario(candidate):
                return _fail(
                    f"unknown scenario {candidate!r}; available: "
                    f"{', '.join(scenario_names())} (or 'all')"
                )
            if candidate not in selected:
                selected.append(candidate)

    # Validate every effort/engine/option combination before any simulation
    # starts.
    try:
        options = ExecutionOptions(
            engine=args.engine,
            workers=args.workers,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            resume_from=args.resume_from,
            interrupt_after=args.interrupt_after,
        )
    except ConfigurationError as exc:
        return _fail(str(exc))
    skipped: dict[str, str] = {}
    for name in selected:
        spec = get_scenario(name)
        try:
            resolve_preset(spec, args.effort)
        except ConfigurationError as exc:
            return _fail(str(exc))
        try:
            validate_engine_request(args.engine, spec)
            validate_executor_options(spec, options)
        except ConfigurationError as exc:
            if not run_all:
                return _fail(str(exc))
            # `all` skips the scenarios that cannot run with the given
            # engine or options instead of aborting the sweep.
            skipped[name] = str(exc)

    for name in selected:
        if name in skipped:
            print(f"[{name}] skipped: {skipped[name]}")
            print()
            continue
        started = time.time()
        try:
            result = run_scenario(
                name,
                effort=args.effort,
                options=options.replace(
                    checkpoint_dir=_checkpoint_subdir(args.checkpoint_dir, name),
                    resume_from=_checkpoint_subdir(args.resume_from, name),
                ),
            )
        except CheckpointInterrupted as exc:
            return _interrupted(name, exc)
        except EngineError as exc:
            # Covers misconfiguration and invalid schedules alike: every
            # engine-level failure surfaces as a one-line error, not a
            # traceback.
            return _fail(str(exc))
        _print_result(name, result, time.time() - started, args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not has_scenario(args.scenario):
        return _fail(
            f"unknown scenario {args.scenario!r}; available: "
            f"{', '.join(scenario_names())}"
        )
    spec = get_scenario(args.scenario)
    try:
        resolve_preset(spec, args.effort)
        axes = _parse_axes(args.axes)
        sweep = SweepSpec.from_mapping(args.scenario, axes)
        combos = len(sweep.combinations())
        print(f"[sweep] {args.scenario}: {combos} combination(s)")
        print()
        started = time.time()
        results = run_sweep(
            sweep,
            effort=args.effort,
            options=ExecutionOptions(
                engine=args.engine,
                workers=args.workers,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=_checkpoint_subdir(args.checkpoint_dir, args.scenario),
                resume_from=_checkpoint_subdir(args.resume_from, args.scenario),
                interrupt_after=args.interrupt_after,
            ),
        )
    except CheckpointInterrupted as exc:
        return _interrupted(args.scenario, exc)
    except EngineError as exc:
        return _fail(str(exc))
    for label, result in results:
        print(f"=== {args.scenario} @ {label} ===")
        if "sweep_seconds" in result.metadata:
            print(
                f"[{args.scenario} @ {label}] point ran in "
                f"{result.metadata['sweep_seconds']:.2f}s "
                f"(workers={result.metadata.get('workers')})"
            )
        output = (
            str(Path(args.output) / label.replace(",", "__"))
            if args.output is not None
            else None
        )
        _print_result(f"{args.scenario} @ {label}", result, None, output)
        print()
    print(f"[sweep] {args.scenario} finished in {time.time() - started:.1f}s")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.scenarios.fuzz import check_conformance, generate_cases

    if args.count < 1:
        return _fail(f"--count must be at least 1, got {args.count}")
    engines = None
    if args.engines is not None:
        engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
        for engine in engines:
            if engine not in engine_names():
                return _fail(
                    f"unknown engine {engine!r}; available: {', '.join(engine_names())}"
                )
    cases = generate_cases(args.seed, args.count)
    if args.list_only:
        for case in cases:
            print(
                f"{case.name}: {case.family}  n={case.n} horizon={case.horizon} "
                f"events={len(case.schedule)}  key={case.cache_key()[:16]}"
            )
        return 0
    started = time.time()
    failures = 0
    runs = 0
    reruns = 0
    for case in cases:
        report = check_conformance(case, engines=engines, trials=args.trials)
        runs += len(report.engines)
        reruns += len(report.reruns)
        verdict = "ok" if report.ok else "FAIL"
        print(
            f"[{case.name}] {case.family}  n={case.n} horizon={case.horizon}  {verdict}"
        )
        for pair in report.confirmed():
            print(f"    {pair.describe()}")
        for pair in report.failures():
            failures += 1
            print(f"    {pair.describe()}", file=sys.stderr)
    elapsed = time.time() - started
    print(
        f"[fuzz] seed={args.seed}: {len(cases)} case(s), "
        f"{runs} engine runs and {reruns} confirmation run(s), "
        f"{failures} conformance failure(s) in {elapsed:.1f}s"
    )
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    return _cmd_sweep(args)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main())
