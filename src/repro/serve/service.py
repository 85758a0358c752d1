"""Framework-free simulation service: validate, dedupe, enqueue, serve.

:class:`SimulationService` is the whole serving brain — the FastAPI layer in
:mod:`repro.serve.app` is a thin transport over it, which is what keeps the
subsystem fully testable without the optional ``[serve]`` extra installed.

Request lifecycle::

    RunRequest --validate--> (spec, preset, key)
        cache hit  -> served immediately, ``cached: true``
        in flight  -> attached to the existing job (single-flight)
        otherwise  -> admitted to the bounded JobQueue
    job -> run_scenario / run_sweep -> ResultCache.put (atomic)
    GET result -> always rendered from the cache entry, so repeated
                  fetches of the same run are byte-identical

Everything that can be rejected is rejected *before* admission — unknown
scenario, bad effort, unsupported engine, malformed workers/sweep — with
:class:`~repro.engine.errors.ConfigurationError`, so a bad request costs
milliseconds, never a simulation.
"""

from __future__ import annotations

import dataclasses
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.engine.options import ExecutionOptions
from repro.engine.parallel import resolve_workers
from repro.engine.registry import engine_capabilities, validate_engine_request
from repro.kernels import availability as kernels_availability
from repro.scenarios.listing import scenario_listing
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import resolve_preset, run_scenario, run_sweep
from repro.scenarios.spec import SweepSpec, apply_axis_overrides
from repro.serve.availability import availability as serve_availability
from repro.serve.cache import CacheEntry, ResultCache
from repro.serve.jobs import JobQueue, JobState
from repro.serve.keys import canonical_cache_key

if TYPE_CHECKING:  # pragma: no cover - type-only imports (layering)
    from repro.experiments.base import ExperimentPreset, ExperimentResult
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "JobFailedError",
    "JobPendingError",
    "RunRequest",
    "SimulationService",
    "UnknownRunError",
]


class UnknownRunError(KeyError):
    """No job and no cache entry under the requested run id."""


class JobPendingError(RuntimeError):
    """The run exists but has not finished yet (HTTP 409 on the result)."""


class JobFailedError(RuntimeError):
    """The run finished with an error; the message carries it."""


@dataclass(frozen=True)
class RunRequest:
    """One validated-on-submit simulation request.

    Attributes
    ----------
    scenario:
        Registered scenario name (see :func:`repro.scenarios.scenario_names`).
    effort:
        Preset effort level (``"quick"`` / ``"default"`` / ``"paper"``).
    engine / workers / jit:
        Execution knobs, forwarded to :func:`repro.scenarios.runner.run_scenario`
        as the matching :class:`~repro.engine.options.ExecutionOptions` fields.
    seed:
        Root-seed override (defaults to the preset's pinned seed).
    overrides:
        Single-value preset overrides routed like sweep axes (``n``,
        ``trials``, ``parallel_time``, protocol constants, workload knobs).
    sweep:
        When set, the run is a :func:`run_sweep` over this axis mapping
        instead of a single :func:`run_scenario`.
    """

    scenario: str
    effort: str = "quick"
    engine: str | None = None
    workers: int | str | None = None
    jit: bool = False
    seed: int | None = None
    overrides: Mapping[str, Any] | None = None
    sweep: Mapping[str, Sequence[Any]] | None = None

    def summary(self) -> dict[str, Any]:
        """JSON-encodable echo stored on the job and shown by status APIs."""
        payload = dataclasses.asdict(self)
        payload["overrides"] = dict(self.overrides) if self.overrides else None
        payload["sweep"] = (
            {key: list(values) for key, values in self.sweep.items()}
            if self.sweep
            else None
        )
        return payload


class SimulationService:
    """Queue + cache + runner behind one object; see the module docstring."""

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        max_cache_bytes: int | None = None,
        max_workers: int = 2,
        max_pending: int = 64,
        checkpoint_every: int | None = None,
        scenario_runner: Any = run_scenario,
        sweep_runner: Any = run_sweep,
    ) -> None:
        self.cache = ResultCache(cache_dir, max_bytes=max_cache_bytes)
        self.queue = JobQueue(max_workers=max_workers, max_pending=max_pending)
        #: Opt-in crash recovery for long jobs: checkpoint every this many
        #: parallel time units into ``<cache_dir>/checkpoints/<run id>``.
        #: A re-submitted request (same id, content-addressed) resumes from
        #: whatever a crashed predecessor left behind; the directory is
        #: removed once the result lands in the cache.  Not part of the
        #: cache key — checkpointing changes durability, never results.
        self.checkpoint_every = checkpoint_every
        self._checkpoint_root = Path(cache_dir) / "checkpoints"
        self._run_scenario = scenario_runner
        self._run_sweep = sweep_runner
        # Serialises the check-cache-then-enqueue step so two identical
        # concurrent submissions cannot both miss and both enqueue.
        self._admission = threading.Lock()

    # --------------------------------------------------------- validation

    def resolve(
        self, request: RunRequest
    ) -> tuple["ScenarioSpec", "ExperimentPreset", SweepSpec | None, str]:
        """Validate a request fully; returns (spec, preset, sweep, cache key).

        Raises :class:`ConfigurationError` (or a subclass) on anything
        malformed — nothing is enqueued and no simulation starts.
        """
        spec = get_scenario(request.scenario)
        validate_engine_request(request.engine, spec)
        resolve_workers(request.workers)  # rejects bad values early
        preset = resolve_preset(spec, request.effort)
        if request.overrides:
            preset = apply_axis_overrides(preset, dict(request.overrides))
        if request.seed is not None:
            preset = preset.with_overrides(seed=int(request.seed))
        sweep = None
        if request.sweep:
            sweep = SweepSpec.from_mapping(request.scenario, dict(request.sweep))
        # Expanding the points validates population sizes, trial counts and
        # resize schedules for every engine before admission.
        if spec.executor is None and sweep is None:
            from repro.scenarios.runner import resolve_params

            tuple(spec.points(preset, resolve_params(spec, preset)))
        key = canonical_cache_key(
            spec,
            preset,
            engine=request.engine,
            workers=request.workers,
            jit=request.jit,
            sweep=sweep,
        )
        return spec, preset, sweep, key

    # ----------------------------------------------------------- lifecycle

    def submit(self, request: RunRequest) -> dict[str, Any]:
        """Admit a request; returns a status payload with ``cached``/``state``.

        Cache hits return immediately (``state: "done", cached: true``);
        misses enqueue (single-flight per key) and return the job status.
        :class:`~repro.serve.jobs.QueueFullError` propagates to the caller
        when the pending bound is reached.
        """
        spec, preset, sweep, key = self.resolve(request)

        def work() -> CacheEntry:
            options = ExecutionOptions(
                engine=request.engine, workers=request.workers, jit=request.jit
            )
            ckpt_dir: Path | None = None
            if self.checkpoint_every is not None:
                # Content-addressed like the cache entry itself: a job that
                # died mid-run resumes when the same request is re-submitted.
                ckpt_dir = self._checkpoint_root / key
                options = options.replace(
                    checkpoint_every=self.checkpoint_every,
                    checkpoint_dir=ckpt_dir,
                    resume_from=ckpt_dir if ckpt_dir.exists() else None,
                )
            if sweep is not None:
                labelled = self._run_sweep(sweep, preset=preset, options=options)
                entry = self.cache.put(key, labelled, kind="sweep")
            else:
                result = self._run_scenario(spec, preset=preset, options=options)
                entry = self.cache.put(key, [(None, result)], kind="scenario")
            if ckpt_dir is not None:
                # The result is durable in the cache; the recovery state is
                # now dead weight.
                shutil.rmtree(ckpt_dir, ignore_errors=True)
            return entry

        with self._admission:
            if self.cache.get(key) is not None:
                return {
                    "run_id": key,
                    "state": JobState.DONE.value,
                    "cached": True,
                    "request": request.summary(),
                }
            job = self.queue.submit(key, work, request=request.summary())
        status = job.status()
        status["run_id"] = key
        status["cached"] = False
        return status

    def status(self, run_id: str) -> dict[str, Any]:
        """Status payload for a run id; raises :class:`UnknownRunError`."""
        job = self.queue.get(run_id)
        if job is not None:
            payload = job.status()
            payload["run_id"] = run_id
            payload["cached"] = False
            return payload
        if self._cached(run_id) is not None:
            # Known only to the cache: computed by an earlier process.
            return {
                "run_id": run_id,
                "state": JobState.DONE.value,
                "cached": True,
            }
        raise UnknownRunError(run_id)

    def _cached(self, run_id: str) -> CacheEntry | None:
        try:
            return self.cache.get(run_id)
        except ValueError:
            # Not even a well-formed key — cannot be a run id we issued.
            return None

    def _entry_for_result(self, run_id: str) -> CacheEntry:
        entry = self._cached(run_id)
        if entry is not None:
            return entry
        job = self.queue.get(run_id)
        if job is None:
            raise UnknownRunError(run_id)
        if job.state is JobState.FAILED:
            raise JobFailedError(job.error or "job failed")
        if job.state in (JobState.QUEUED, JobState.RUNNING):
            raise JobPendingError(f"run {run_id} is still {job.state.value}")
        # DONE but no cache entry: the entry was evicted or purged between
        # completion and this read — re-submit recomputes it.
        raise UnknownRunError(run_id)

    def result_payload(self, run_id: str) -> dict[str, Any]:
        """The run's full JSON payload, rendered from the cache entry.

        Always built from the stored artifacts — never from in-memory job
        state — so every fetch of the same run id returns byte-identical
        content no matter which process computed it.
        """
        entry = self._entry_for_result(run_id)
        return {
            "run_id": entry.key,
            "kind": entry.kind,
            "results": [
                _result_payload(label, result) for label, result in entry.results
            ],
        }

    def result_csv(self, run_id: str, *, index: int = 0) -> str:
        """One result's rows as CSV text, byte-identical to its artifact file."""
        from repro.analysis.tables import csv_text

        entry = self._entry_for_result(run_id)
        if not 0 <= index < len(entry.results):
            raise UnknownRunError(
                f"{run_id} has {len(entry.results)} result(s); index {index} is out of range"
            )
        _, result = entry.results[index]
        return csv_text(result.rows)

    # --------------------------------------------------------- inspection

    def scenarios(self) -> list[dict[str, Any]]:
        """The shared machine-readable scenario listing (``GET /scenarios``)."""
        return scenario_listing()

    def health(self) -> dict[str, Any]:
        """Capabilities, queue depth and cache stats (``GET /healthz``)."""
        jit = kernels_availability()
        serve = serve_availability()
        return {
            "status": "ok",
            "engines": engine_capabilities(),
            "jit": {
                "enabled": jit.enabled,
                "reason": jit.reason,
                "numba_version": jit.numba_version,
            },
            "serve": {
                "enabled": serve.enabled,
                "reason": serve.reason,
                "fastapi_version": serve.fastapi_version,
            },
            "queue": self.queue.depth(),
            "cache": self.cache.stats(),
        }

    def close(self) -> None:
        """Shut the worker pool down (running jobs finish)."""
        self.queue.shutdown(wait=True)


def _result_payload(label: str | None, result: "ExperimentResult") -> dict[str, Any]:
    return {
        "label": label,
        "experiment": result.experiment,
        "description": result.description,
        "metadata": result.metadata,
        "rows": result.rows,
        "series": result.series,
    }
