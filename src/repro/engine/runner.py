"""Multi-trial orchestration.

Every data point in the paper's evaluation aggregates 96 independent
simulation runs.  :func:`run_engine_trials` reproduces this pattern: it runs
``trials`` repetitions of one workload on a named engine and returns the
per-trial snapshot series, which :func:`aggregate_series` reduces
element-wise to the min / median / max the paper plots.

Every run goes through one shard runner.  Every trial owns the stream at
its *address* in a :class:`repro.engine.rng.SeedTree` (``root seed ->
trial index``).  The looped engines (``sequential``, ``array``,
``counts``) get one freshly built engine per trial on that stream.  The
``batched`` engine runs a shard's trials as stacks of one-stream-per-row
engines (:class:`repro.engine.rng.RowStreams`), each stack as many rows as
fit one cache block of the ensemble engine; every row is bit-identical to
a one-row engine on its trial's stream, so stacking never changes results.
The ``ensemble`` engine stacks a shard's trials into one ``(trials, n)``
engine on one shared stream.  With ``workers=None`` (the default) the
runner is called once, in-process, on the root stream; with ``workers``
the trials are split into row-shards whose layout does not depend on the
worker count, run serially or across a process pool (see
:mod:`repro.engine.parallel`).  Checkpointing is a write hook at segment
boundaries and never changes results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.engine.api import matrix_quantiles
from repro.engine.checkpoint import (
    CheckpointInterrupted,
    atomic_write,
    read_checkpoint,
    write_checkpoint,
)
from repro.engine.ensemble_engine import EnsembleSimulator
from repro.engine.errors import CheckpointError, ConfigurationError
from repro.engine.parallel import (
    ShardTiming,
    TrialShard,
    execute_shards,
    merge_shard_results,
    plan_shards,
    resolve_workers,
)
from repro.engine.rng import RandomSource, RowStreams, SeedTree

__all__ = [
    "AggregatedSeries",
    "SHARD_NAMESPACE",
    "aggregate_series",
    "recorded_checkpoint_every",
    "run_engine_trials",
]


@dataclass
class AggregatedSeries:
    """Element-wise aggregation of one numeric series across trials.

    ``minimum``, ``median`` and ``maximum`` have one entry per time index and
    are computed across trials, which is exactly how the paper's plots
    report "Minimum / Median / Maximum" over its 96 runs.
    """

    name: str
    index: list[float]
    minimum: list[float]
    median: list[float]
    maximum: list[float]

    def as_dict(self) -> dict[str, list[float]]:
        return {
            "index": list(self.index),
            "minimum": list(self.minimum),
            "median": list(self.median),
            "maximum": list(self.maximum),
        }


def aggregate_series(
    name: str,
    index: Sequence[float],
    per_trial_values: Sequence[Sequence[float]],
) -> AggregatedSeries:
    """Aggregate per-trial series element-wise into min/median/max.

    Trials may have different lengths (e.g. early-stopped runs); the
    aggregate is truncated to the shortest trial so that every reported
    point covers all trials.  The columns are reduced in one
    :func:`repro.engine.api.matrix_quantiles` partition pass over the
    stacked ``(trials, length)`` matrix rather than a Python loop per time
    index; the output is unchanged — plain float lists, with the
    even-count median averaging the two middle values exactly like
    ``statistics.median``.
    """
    if not per_trial_values:
        return AggregatedSeries(name=name, index=[], minimum=[], median=[], maximum=[])
    length = min(len(v) for v in per_trial_values)
    length = min(length, len(index))
    stacked = np.array(
        [np.asarray(values, dtype=float)[:length] for values in per_trial_values]
    )
    minima, medians, maxima = matrix_quantiles(stacked.T)
    return AggregatedSeries(
        name=name,
        index=[float(x) for x in index[:length]],
        minimum=minima.tolist(),
        median=medians.tolist(),
        maximum=maxima.tolist(),
    )


#: Seed-tree namespace of the stacked ensemble row-shards: shard streams
#: are addressed ``tree.child(SHARD_NAMESPACE, first_trial)``, so a
#: shard's stream depends on which trials it covers, never on which
#: worker runs it or how many siblings exist.
SHARD_NAMESPACE = "shard"

#: Name of the workload manifest inside a checkpoint directory.
CHECKPOINT_MANIFEST = "manifest.json"


# --------------------------------------------------------------- checkpoints
#
# A checkpointed shard writes one atomic, checksummed
# ``shard_<start>-<stop>.ckpt`` file (see :mod:`repro.engine.checkpoint`)
# holding everything needed to continue: the series of already-finished
# trials, the in-flight engine's checkpoint payload and its partial segment
# series.  The parent writes a ``manifest.json`` pinning the workload;
# resuming against a different workload fails loudly with
# :class:`~repro.engine.errors.CheckpointError` instead of silently mixing
# runs.


def _shard_checkpoint_path(directory: str | Path, start: int, stop: int) -> Path:
    """The checkpoint file of the shard covering trials ``[start, stop)``."""
    return Path(directory) / f"shard_{start}-{stop}.ckpt"


def _shard_workload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The workload fingerprint pinned into a shard checkpoint.

    A checkpoint is a *same-workload* recovery mechanism, not a migration
    format: every knob that shapes the shard's trajectory (engine, trial
    range, horizon, cadences, root seed, stream addressing) is recorded and
    must match exactly on resume.
    """
    return {
        "engine": payload["engine"],
        "start": int(payload["start"]),
        "stop": int(payload["stop"]),
        "parallel_time": int(payload["parallel_time"]),
        "snapshot_every": int(payload["snapshot_every"]),
        "checkpoint_every": int(payload["checkpoint_every"]),
        "seed": payload["seed"],
        "root_stream": payload["root_stream"],
    }


def _load_shard_checkpoint(
    path: Path, expected_workload: Mapping[str, Any]
) -> dict[str, Any] | None:
    """Read one shard checkpoint; ``None`` when absent (fresh start).

    A present-but-corrupt file and a workload mismatch both raise
    :class:`~repro.engine.errors.CheckpointError` — a resume must never
    silently fall back to recomputing (masking data loss) or continue a
    different run's state.
    """
    if not path.exists():
        return None
    state = read_checkpoint(path, kind="shard")
    if state.get("workload") != dict(expected_workload):
        raise CheckpointError(
            f"shard checkpoint {path.name} was taken for a different workload "
            f"({state.get('workload')!r} != {dict(expected_workload)!r})"
        )
    return state


def _concat_series(segments: Sequence[Mapping[str, list[float]]]) -> dict[str, list[float]]:
    """Stitch per-segment series columns into one continuous series.

    Engine counters persist across ``run()`` calls and each call returns
    only its own snapshots, so concatenation reproduces exactly the series
    of one uninterrupted run over the whole horizon.
    """
    if len(segments) == 1:
        return dict(segments[0])
    return {
        key: [value for segment in segments for value in segment[key]]
        for key in segments[0]
    }


def _run_shard(payload: dict[str, Any]) -> list[dict[str, list[float]]]:
    """Run trials ``[start, stop)``; returns their series in trial order.

    Module-level so worker processes can unpickle it.  Looped engines build
    one engine per trial on the stream at ``tree.trial(t)``.  The
    ``batched`` engine gets the streams of every trial still to run as one
    :class:`~repro.engine.rng.RowStreams`; its builder stacks as many of
    them as fit the budget, and the next stack starts at the first trial
    left over.  Every row draws exactly what a one-row engine on its
    stream draws, so results do not depend on how trials are grouped into
    stacks or shards.  The ``ensemble`` engine runs the shard as one
    stack: on the root stream when the run is a single ``workers=None``
    shard, else at ``tree.child(SHARD_NAMESPACE, start)``.

    Each engine runs in segments of ``checkpoint_every`` parallel time (one
    segment when not checkpointing).  The checkpoint hook writes at every
    segment boundary inside an engine's horizon, and at an engine boundary
    once ``checkpoint_every`` parallel time has accrued since the last
    write — so short trials do not pay one write each — and always after
    the last engine (the ``done`` write).  Engine counters persist across
    ``run()`` calls and the restored RNG state (one per row of a stack)
    overwrites whatever the factory drew, so a resumed shard is
    bit-identical to an uninterrupted one.
    """
    factory, engine = payload["factory"], payload["engine"]
    tree: SeedTree = payload["tree"]
    start, stop = payload["start"], payload["stop"]
    horizon, snapshot_every = payload["parallel_time"], payload["snapshot_every"]
    cadence = payload["checkpoint_every"]
    checkpointing = cadence is not None

    completed: list[dict[str, list[float]]] = []
    trial = start
    engine_state: dict[str, Any] | None = None
    segments: list[list[dict[str, list[float]]]] = []
    if checkpointing:
        workload = _shard_workload(payload)
        path = _shard_checkpoint_path(payload["checkpoint_dir"], start, stop)
        if payload["resume_from"] is not None:
            state = _load_shard_checkpoint(
                _shard_checkpoint_path(payload["resume_from"], start, stop), workload
            )
            if state is not None:
                completed, trial = state["completed"], state["trial"]
                engine_state, segments = state["engine_payload"], state["segments"]
    else:
        cadence = horizon
    writes = 0

    def save(engine_payload: dict[str, Any] | None) -> None:
        nonlocal writes
        write_checkpoint(
            path,
            {
                "workload": workload,
                "completed": completed,
                "trial": trial,
                "engine_payload": engine_payload,
                "segments": segments,
                "done": trial >= stop,
            },
            kind="shard",
        )
        writes += 1
        interrupt_after = payload["interrupt_after"]
        if interrupt_after is not None and writes >= interrupt_after:
            # Deterministic fault injection: the N-th write is on disk.
            raise CheckpointInterrupted(
                f"injected interruption after checkpoint write {writes} ({path.name})"
            )

    since_write = 0
    while trial < stop:
        if engine == "ensemble":
            stream = tree if payload["root_stream"] else tree.child(SHARD_NAMESPACE, start)
            simulator = factory(engine, stream.source(), stop - start)
        elif engine == "batched":
            streams = RowStreams([tree.trial(t).source() for t in range(trial, stop)])
            simulator = factory(engine, streams, None)
        else:
            simulator = factory(engine, tree.trial(trial).source(), None)
        stacked = isinstance(simulator, EnsembleSimulator)
        if engine_state is not None:
            simulator.apply_checkpoint_payload(engine_state)
            engine_state = None
        while True:
            step = min(cadence, horizon - simulator.parallel_time)
            result = simulator.run(step, snapshot_every=snapshot_every)
            runs = result.trial_results if stacked else (result,)
            segments.append([run.series() for run in runs])
            since_write += step
            if simulator.parallel_time >= horizon:
                break
            if checkpointing:
                # copy=False: the payload is pickled by this write, before
                # the engine advances again.
                save(simulator.checkpoint_payload(copy=False))
                since_write = 0
        completed.extend(
            _concat_series([segment[row] for segment in segments])
            for row in range(len(segments[0]))
        )
        segments = []
        trial += simulator.trials if stacked else 1
        if checkpointing and (trial >= stop or since_write >= cadence):
            save(None)
            since_write = 0
    return completed


def _read_manifest(path: Path) -> dict[str, Any] | None:
    """A checkpoint manifest's contents, or ``None`` when it does not exist.

    An unreadable manifest raises :class:`~repro.engine.errors.
    CheckpointError`: it is never skipped or treated as a fresh start.
    """
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest {path}: {exc}") from exc


def recorded_checkpoint_every(directory: str | Path, *, depth: int = 0) -> int | None:
    """The checkpoint cadence pinned by the manifests under ``directory``.

    Lets ``resume_from`` alone continue a run.  ``depth`` is the number of
    directory levels between ``directory`` and the manifests: 0 for one
    :func:`run_engine_trials` directory, 1 for a scenario's per-point
    subdirectories, 2 for a sweep's per-combination ones.  Every manifest of
    one invocation shares the cadence, so the first in path order answers;
    ``None`` means no manifest exists yet (a fresh start).  An unreadable
    manifest raises :class:`~repro.engine.errors.CheckpointError`.
    """
    for path in sorted(Path(directory).glob("*/" * depth + CHECKPOINT_MANIFEST)):
        manifest = _read_manifest(path)
        try:
            return int(manifest["checkpoint_every"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest {path}: {exc!r}"
            ) from exc
    return None


def _prepare_checkpoint_run(
    checkpoint_dir: Path,
    resume_from: Path | None,
    manifest: dict[str, Any],
) -> None:
    """Create the checkpoint directory and pin/validate its manifest.

    The manifest records the full workload; an existing manifest (in the
    resume source or the target directory) that disagrees means the caller
    is about to mix two different runs' checkpoints — a
    :class:`~repro.engine.errors.CheckpointError`, never a silent restart.
    """

    def check(path: Path) -> None:
        existing = _read_manifest(path)
        if existing is not None and existing != manifest:
            raise CheckpointError(
                f"checkpoint manifest {path} does not match this workload "
                f"({existing!r} != {manifest!r}); checkpoints are same-workload "
                "recovery only"
            )

    if resume_from is not None:
        check(resume_from / CHECKPOINT_MANIFEST)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    target = checkpoint_dir / CHECKPOINT_MANIFEST
    check(target)
    if not target.exists():
        atomic_write(target, json.dumps(manifest, indent=2, sort_keys=True).encode())


def run_engine_trials(
    engine_factory: Callable[[str, RandomSource, int | None], Any],
    *,
    engine: str,
    trials: int,
    seed: int | None,
    parallel_time: int,
    snapshot_every: int = 1,
    workers: int | str | None = None,
    timing_sink: list[ShardTiming] | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
    interrupt_after: int | None = None,
) -> list[dict[str, list[float]]]:
    """Run ``trials`` repetitions of one workload and return per-trial series.

    ``engine_factory(engine_name, rng, trials)`` builds the engine; it
    receives ``trials`` only for ``"ensemble"`` (``None`` otherwise).  For
    ``"batched"``, ``rng`` is a :class:`~repro.engine.rng.RowStreams` of
    the trials still to run, and the engine it builds (through
    :func:`~repro.engine.registry.make_engine`) stacks as many of them as
    fit; every other engine runs exactly one trial.  Each returned entry is
    one trial's snapshot series (:meth:`repro.engine.api.RunResult.series`
    columns), in trial order.

    ``workers=None`` (default) runs every trial as one in-process shard on
    the root stream, so an ensemble run is one stack seeded by ``seed``.
    ``1`` runs the row-shards of :func:`~repro.engine.parallel.plan_shards`
    serially in-process, and higher counts (or ``"auto"``) fan them over a
    process pool — ``engine_factory`` must then be picklable (a
    module-level function or :func:`functools.partial` over one).  The
    shard layout does not depend on the worker count, so any two counts
    give bit-identical per-trial results.  The looped engines and
    ``batched`` are also bit-identical to ``workers=None``; a sharded
    ensemble run reseeds per shard, so it differs from the single stack
    (statistically equivalent, pinned by the conformance tests).  ``timing_sink``, when given,
    receives one :class:`~repro.engine.parallel.ShardTiming` per shard of a
    sharded run.

    ``checkpoint_every=C`` (parallel time, a multiple of ``snapshot_every``)
    with ``checkpoint_dir=D`` opts into crash recovery: each shard writes an
    atomic, checksummed ``shard_<start>-<stop>.ckpt`` roughly every ``C``
    of parallel time, and a ``manifest.json`` pins the workload.
    ``resume_from=D`` continues an interrupted run (``checkpoint_dir`` and
    ``C`` default to the directory and its manifest); missing files mean a
    fresh start, corrupt files or a workload mismatch raise
    :class:`~repro.engine.errors.CheckpointError`.  Checkpointing never
    changes results: plain, checkpointed and resumed runs at the same
    ``workers`` are bit-identical.  ``interrupt_after=N`` raises
    :class:`~repro.engine.checkpoint.CheckpointInterrupted` after the N-th
    checkpoint write of a shard, for kill-and-resume tests.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    resolved = resolve_workers(workers)
    checkpointing = any(
        knob is not None for knob in (checkpoint_every, checkpoint_dir, resume_from)
    )
    if checkpointing:
        if checkpoint_every is None and resume_from is not None:
            checkpoint_every = recorded_checkpoint_every(resume_from)
        if checkpoint_every is None:
            raise ConfigurationError(
                "checkpoint_every is required when checkpoint_dir is given "
                "(or resume_from names a directory without a manifest)"
            )
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be at least 1, got {checkpoint_every}"
            )
        if checkpoint_every % snapshot_every != 0:
            raise ConfigurationError(
                f"checkpoint_every ({checkpoint_every}) must be a multiple of "
                f"snapshot_every ({snapshot_every}) so that checkpoint "
                "boundaries land exactly on snapshot boundaries"
            )
        if checkpoint_dir is None:
            if resume_from is None:
                raise ConfigurationError(
                    "checkpoint_every requires checkpoint_dir (or resume_from)"
                )
            checkpoint_dir = resume_from
    elif interrupt_after is not None:
        raise ConfigurationError(
            "interrupt_after only applies to checkpointed runs "
            "(pass checkpoint_every/checkpoint_dir)"
        )

    root_stream = resolved is None
    shards = (TrialShard(index=0, start=0, stop=trials),) if root_stream else plan_shards(trials)
    if checkpointing:
        _prepare_checkpoint_run(
            Path(checkpoint_dir),
            None if resume_from is None else Path(resume_from),
            {
                "schema_version": 2,
                "kind": "trial-run",
                "engine": engine,
                "trials": trials,
                "seed": seed,
                "parallel_time": parallel_time,
                "snapshot_every": snapshot_every,
                "checkpoint_every": checkpoint_every,
                "root_stream": root_stream,
                "shards": [[shard.start, shard.stop] for shard in shards],
            },
        )
    tree = SeedTree.from_seed(seed)
    payloads = [
        {
            "factory": engine_factory,
            "engine": engine,
            "tree": tree,
            "seed": seed,
            "root_stream": root_stream,
            "start": shard.start,
            "stop": shard.stop,
            "parallel_time": parallel_time,
            "snapshot_every": snapshot_every,
            "checkpoint_every": checkpoint_every,
            "checkpoint_dir": None if checkpoint_dir is None else str(checkpoint_dir),
            "resume_from": None if resume_from is None else str(resume_from),
            "interrupt_after": interrupt_after,
        }
        for shard in shards
    ]
    if root_stream:
        return _run_shard(payloads[0])
    per_shard, timings = execute_shards(
        _run_shard, payloads, workers=resolved, shards=shards
    )
    if timing_sink is not None:
        timing_sink.extend(timings)
    return merge_shard_results(shards, per_shard)
