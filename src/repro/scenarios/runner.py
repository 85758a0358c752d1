"""Scenario execution: one entry point for every registered workload.

:func:`run_scenario` turns a :class:`repro.scenarios.spec.ScenarioSpec` into
an :class:`repro.experiments.base.ExperimentResult`: it resolves the effort
preset, applies any protocol-parameter overrides, expands the spec into
workload points, picks an engine per point (the spec's pinned engine, an
explicit request, or :func:`repro.engine.registry.choose_engine` when
neither is given), runs each point through the shared estimate-trace
machinery, and summarises it with the spec's metric extractors.

:func:`run_sweep` does the same for every combination of a
:class:`~repro.scenarios.spec.SweepSpec` parameter grid.

All engine/effort validation happens *before* any simulation starts, so a
bad combination fails in milliseconds with a one-line error instead of a
mid-run traceback.  So does :func:`validate_executor_options`, which
rejects the execution settings a bespoke-executor scenario cannot honour.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.params import ProtocolParameters
from repro.engine.errors import ConfigurationError
from repro.engine.options import ExecutionOptions, execution_metadata
from repro.engine.parallel import execute_shards, resolve_workers
from repro.engine.registry import choose_engine, validate_engine_request
from repro.engine.runner import recorded_checkpoint_every
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - the experiments layer imports this
    # module at definition time, so runtime imports of it happen lazily
    # inside the functions below.
    from repro.experiments.base import ExperimentPreset, ExperimentResult

__all__ = [
    "run_scenario",
    "run_sweep",
    "resolve_preset",
    "resolve_params",
    "validate_executor_options",
]


def _resolve_spec(spec_or_name: ScenarioSpec | str) -> ScenarioSpec:
    if isinstance(spec_or_name, ScenarioSpec):
        return spec_or_name
    return get_scenario(spec_or_name)


def resolve_preset(
    spec: ScenarioSpec, effort: str, preset: "ExperimentPreset | None" = None
) -> "ExperimentPreset":
    """The preset a scenario runs at: explicit, or looked up by effort."""
    from repro.experiments.config import PRESETS

    if preset is not None:
        return preset
    by_effort = PRESETS.get(spec.id)
    if by_effort is None:
        raise ConfigurationError(
            f"scenario {spec.name!r} has no presets registered under "
            f"{spec.id!r}; pass an explicit preset"
        )
    if effort not in by_effort:
        raise ConfigurationError(
            f"scenario {spec.name!r} has no {effort!r} preset; available "
            f"efforts: {', '.join(sorted(by_effort))}"
        )
    return by_effort[effort]


def resolve_params(spec: ScenarioSpec, preset: "ExperimentPreset") -> ProtocolParameters:
    """Protocol constants for a run, with sweep overrides applied.

    Overriding ``k`` without ``grv_samples`` re-derives the per-call sample
    count from the new ``k`` (the Algorithm 3 default), mirroring how
    :class:`~repro.core.params.ProtocolParameters` behaves at construction.
    """
    params = spec.params_factory()
    overrides = preset.extra.get("params_overrides")
    if overrides:
        overrides = dict(overrides)
        if "k" in overrides and "grv_samples" not in overrides:
            overrides["grv_samples"] = 0  # sentinel: re-derive from k
        try:
            params = dataclasses.replace(params, **overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"invalid protocol parameter overrides {overrides!r}: {exc}"
            ) from exc
    return params


def validate_executor_options(
    spec: ScenarioSpec, options: ExecutionOptions, *, combinations: int = 1
) -> None:
    """Reject the settings a bespoke-executor scenario cannot honour.

    A spec with an ``executor`` runs its own serial measurement on the
    sequential engine: it cannot shard trials over ``workers`` or write
    checkpoints.  Any of them raises :class:`ConfigurationError`; specs
    without an executor pass.  ``combinations`` is the size of the sweep
    grid being run (1 for a single run): a sweep of several combinations
    fans them out over ``workers`` and runs each one serially, so there
    ``workers`` is honoured.
    """
    if spec.executor is None:
        return
    names = ("checkpoint_every", "checkpoint_dir", "resume_from", "interrupt_after")
    if combinations == 1:
        names = ("workers",) + names
    requested = [name for name in names if getattr(options, name) is not None]
    if requested:
        raise ConfigurationError(
            f"scenario {spec.name!r} runs serially on its own executor and "
            f"cannot honour {', '.join(requested)}"
        )


def _engine_for_point(
    spec: ScenarioSpec,
    requested: str | None,
    point_trials: int,
    point_n: int,
    params: ProtocolParameters,
) -> str:
    if requested is not None and requested != "auto":
        return requested
    if requested is None and spec.engine is not None:
        return spec.engine
    # Every point runs the paper's protocol (run_estimate_trace).
    chosen = choose_engine(DynamicSizeCounting(params), point_trials, point_n)
    if chosen not in spec.engines:
        chosen = spec.engines[0]
    return chosen


def _checkpoint_slug(label: str) -> str:
    """A filesystem-safe directory name for one point/combination label."""
    return re.sub(r"[^A-Za-z0-9._=,+-]+", "_", label) or "point"


def _subdir(root: Any, label: str) -> str | None:
    """The per-point/per-combo checkpoint directory under ``root``."""
    if root is None:
        return None
    return str(Path(root) / _checkpoint_slug(label))


def run_scenario(
    spec_or_name: ScenarioSpec | str,
    *,
    effort: str = "quick",
    preset: ExperimentPreset | None = None,
    options: ExecutionOptions | None = None,
) -> ExperimentResult:
    """Run one scenario and return its :class:`ExperimentResult`.

    Parameters
    ----------
    spec_or_name:
        A :class:`ScenarioSpec` or the name of a registered scenario.
    effort:
        Preset effort level (``"quick"`` / ``"default"`` / ``"paper"``);
        ignored when an explicit ``preset`` is passed.
    preset:
        An explicit :class:`~repro.experiments.base.ExperimentPreset`,
        overriding the effort lookup.
    options:
        How to execute, as a frozen
        :class:`repro.engine.options.ExecutionOptions` (defaults apply when
        omitted):

        * ``engine`` — a name forces that engine for every point,
          ``"auto"`` auto-selects per point even if the spec pins an
          engine, and ``None`` uses the spec's pinned engine, falling back
          to :func:`repro.engine.registry.choose_engine` when none is
          pinned.
        * ``workers`` — shard every point's trials (see
          :mod:`repro.engine.parallel`): ``None`` runs each point as one
          in-process shard, ``"auto"`` uses the capped CPU count, an
          integer fans each point's row-shards over that many worker
          processes.  Per-trial results are bit-identical for any
          ``workers >= 1``.
        * ``checkpoint_every`` / ``checkpoint_dir`` / ``resume_from`` /
          ``interrupt_after`` — crash recovery (see
          :func:`repro.engine.runner.run_engine_trials`): each point
          checkpoints into its own subdirectory of ``checkpoint_dir``
          (named after the point's series label), and ``resume_from``
          continues an interrupted invocation — completed points return
          from their final checkpoints, the interrupted point resumes
          mid-run, the rest run fresh.  ``resume_from`` alone is enough:
          the cadence is read from the run's own manifests.
          Checkpointing never changes results.

        Bespoke-executor scenarios (recorder workloads pinned to the
        sequential engine) run serially and reject ``workers`` and every
        checkpoint field before any work (see
        :func:`validate_executor_options`).
    """
    # Imported here: the experiments layer imports repro.scenarios at
    # definition time, so the reverse dependency must stay lazy.
    from repro.experiments.base import ExperimentResult
    from repro.experiments.figures import run_estimate_trace

    opts = options if options is not None else ExecutionOptions()
    spec = _resolve_spec(spec_or_name)
    validate_engine_request(opts.engine, spec)
    validate_executor_options(spec, opts)
    workers = resolve_workers(opts.workers)
    preset = resolve_preset(spec, effort, preset)
    params = resolve_params(spec, preset)
    if opts.checkpointing:
        if opts.checkpoint_dir is None:
            opts = opts.replace(checkpoint_dir=opts.resume_from)
        if opts.checkpoint_every is None and opts.resume_from is not None:
            # Point subdirectories hold the manifests: */manifest.json.
            opts = opts.replace(
                checkpoint_every=recorded_checkpoint_every(opts.resume_from, depth=1)
            )

    if spec.executor is not None:
        resolved = _engine_for_point(
            spec, opts.engine, preset.trials, max(preset.population_sizes, default=2), params
        )
        result = spec.executor(spec, preset, params, resolved)
        execution = execution_metadata(
            requested_engine=opts.engine,
            engines_used=[resolved],
            workers=None,  # bespoke executors always run serially
        )
        execution["workers_requested"] = None
        result.metadata["execution"] = execution
        return result

    points = tuple(spec.points(preset, params))
    if not points:
        raise ConfigurationError(
            f"scenario {spec.name!r} expanded to no workload points for "
            f"preset {preset.name!r}"
        )

    rows: list[dict[str, Any]] = []
    series: dict[str, dict[str, list[float]]] = {}
    engines_used: list[str] = []
    shard_timings: dict[str, list[dict[str, Any]]] = {}
    phases: dict[str, list[dict[str, Any]]] = {}
    for point in points:
        if point.info.get("phases"):
            # Multi-phase points carry their boundaries; stamp them into
            # the result metadata so tables/figures can split by phase.
            phases[point.series_label] = [
                dict(boundary) for boundary in point.info["phases"]
            ]
        point_engine = _engine_for_point(spec, opts.engine, point.trials, point.n, params)
        engines_used.append(point_engine)
        trace = run_estimate_trace(
            point.n,
            point.parallel_time,
            trials=point.trials,
            seed=point.seed,
            params=params,
            resize_schedule=point.resize_schedule,
            initial_estimate=point.initial_estimate,
            options=opts.replace(
                engine=point_engine,
                workers=workers,
                checkpoint_dir=_subdir(opts.checkpoint_dir, point.series_label),
                resume_from=_subdir(opts.resume_from, point.series_label),
            ),
        )
        row: dict[str, Any] = {}
        for metric in spec.metrics:
            row.update(metric(trace, point, preset, params))
        rows.append(row)
        if spec.keep_series:
            series[point.series_label] = trace.series()
        if trace.shard_timings:
            shard_timings[point.series_label] = trace.shard_timings

    engine_label = engines_used[0] if len(set(engines_used)) == 1 else "auto"
    execution = execution_metadata(
        requested_engine=opts.engine,
        engines_used=engines_used,
        workers=workers,
    )
    execution["workers_requested"] = opts.workers
    if opts.checkpointing:
        execution["checkpoint_every"] = opts.checkpoint_every
        execution["checkpoint_dir"] = (
            None if opts.checkpoint_dir is None else str(opts.checkpoint_dir)
        )
        execution["resumed_from"] = None if opts.resume_from is None else str(opts.resume_from)
    metadata: dict[str, Any] = {
        "preset": preset.name,
        "params": params.describe(),
        "engine": engine_label,
        "scenario": spec.name,
        "execution": execution,
    }
    if phases:
        metadata["phases"] = phases
    if workers is not None:
        metadata["workers"] = workers
        metadata["shard_timings"] = shard_timings
    return ExperimentResult(
        experiment=spec.id,
        description=spec.description_for(preset),
        rows=rows,
        series=series,
        metadata=metadata,
    )


def _run_sweep_combo(payload: dict[str, Any]) -> "ExperimentResult":
    """Run one sweep combination; module-level so worker processes can
    unpickle it.  The scenario travels by registry name (the spec itself
    may hold non-picklable factories) and is re-resolved in the worker.
    """
    return run_scenario(
        payload["scenario"], preset=payload["preset"], options=payload["options"]
    )


def run_sweep(
    sweep: SweepSpec,
    *,
    effort: str = "quick",
    preset: ExperimentPreset | None = None,
    options: ExecutionOptions | None = None,
) -> list[tuple[str, ExperimentResult]]:
    """Run every combination of a sweep grid; returns ``(label, result)`` pairs.

    ``effort``, ``preset`` and ``options`` mean what they mean on
    :func:`run_scenario`; ``preset`` is the base every combination
    overrides.

    The whole grid is expanded and validated up front — protocol-parameter
    axes *and* workload points (schedules, population sizes) — so a bad axis
    value fails before the first simulation instead of mid-sweep after
    earlier combinations already ran.

    ``options.workers`` shards the sweep: with more than one combination,
    each grid point becomes an independent job and the jobs fan out over
    the worker pool (each combination runs serially inside its worker); a
    single combination instead passes ``workers`` to :func:`run_scenario`,
    which shards that combination's trials.  Either way the split is a pure
    function of the grid — results are bit-identical for any
    ``workers >= 1`` and are returned in grid order with per-combination
    wall-clock seconds in ``metadata["sweep_seconds"]``.

    The checkpoint fields behave as in :func:`run_scenario`, one level up:
    each grid combination checkpoints into its own subdirectory of
    ``checkpoint_dir`` named after the combination label, so an
    interrupted sweep resumed with ``resume_from`` skips completed
    combinations via their final checkpoints and continues the
    interrupted one mid-run.
    """
    opts = options if options is not None else ExecutionOptions()
    spec = _resolve_spec(sweep.scenario)
    validate_engine_request(opts.engine, spec)
    resolved_workers = resolve_workers(opts.workers)
    base = resolve_preset(spec, effort, preset)
    expanded = sweep.expand(base)
    validate_executor_options(spec, opts, combinations=len(expanded))
    checkpoint_dir, resume_from = opts.checkpoint_dir, opts.resume_from
    if opts.checkpointing:
        if checkpoint_dir is None:
            checkpoint_dir = resume_from
        if opts.checkpoint_every is None and resume_from is not None:
            # Combination subdirs nest point subdirs: */*/manifest.json.
            opts = opts.replace(
                checkpoint_every=recorded_checkpoint_every(resume_from, depth=2)
            )
    for _, combo_preset in expanded:
        combo_params = resolve_params(spec, combo_preset)
        if spec.executor is None:
            # Point construction validates population sizes, trial counts
            # and resize schedules for every engine.
            tuple(spec.points(combo_preset, combo_params))

    def combo_options(label: str, workers: int | str | None) -> ExecutionOptions:
        return opts.replace(
            workers=workers,
            checkpoint_dir=_subdir(checkpoint_dir, label),
            resume_from=_subdir(resume_from, label),
        )

    if resolved_workers is None or len(expanded) == 1:
        # Serial path (or a single combination, where trial-level sharding
        # inside run_scenario is the better use of the pool).
        results = []
        for label, combo_preset in expanded:
            result = run_scenario(
                spec, preset=combo_preset, options=combo_options(label, opts.workers)
            )
            result.metadata["sweep"] = label
            results.append((label, result))
        return results

    payloads = [
        {
            "scenario": sweep.scenario,
            "preset": combo_preset,
            # Combinations are the unit of parallelism; each runs serially
            # inside its worker so results match workers=1 bit for bit.
            "options": combo_options(label, None),
        }
        for label, combo_preset in expanded
    ]
    combo_results, timings = execute_shards(
        _run_sweep_combo, payloads, workers=resolved_workers
    )
    results = []
    for (label, _), result, timing in zip(expanded, combo_results, timings):
        result.metadata["sweep"] = label
        result.metadata["workers"] = resolved_workers
        result.metadata["sweep_seconds"] = timing.seconds
        # Each combination ran serially inside its worker; the sweep-level
        # fan-out is the resolved parallelism for this result.
        result.metadata["execution"]["sweep_workers"] = resolved_workers
        results.append((label, result))
    return results
