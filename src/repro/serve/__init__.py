"""Simulation-as-a-service: HTTP API, async job queue, content-addressed cache.

Every run in this reproduction is a deterministic function of a frozen
:class:`~repro.scenarios.spec.ScenarioSpec` and a
:class:`~repro.engine.rng.SeedTree`-addressed random stream, so identical
requests are identical computations — the property that lets repeated
traffic be served from a content-addressed cache instead of re-simulating.

Layering:

* **Core (always importable, no extra needed)** —
  :mod:`repro.serve.keys` (canonical run-level SHA-256 cache keys),
  :mod:`repro.serve.jobs` (bounded async job queue),
  :mod:`repro.serve.cache` (disk-backed LRU result cache, atomic writes),
  :mod:`repro.serve.service` (the facade tying them to the real
  :func:`~repro.scenarios.runner.run_scenario` / ``run_sweep`` path).
* **HTTP transport (optional ``[serve]`` extra)** — :mod:`repro.serve.app`,
  a thin FastAPI layer; build it through :func:`create_app`, which raises a
  clean one-line error when the extra is not installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.engine.errors import ConfigurationError
from repro.serve.availability import ServeAvailability, availability
from repro.serve.cache import CacheEntry, ResultCache
from repro.serve.jobs import Job, JobQueue, JobState, QueueFullError
from repro.serve.keys import canonical_cache_key, run_encoding
from repro.serve.service import (
    JobFailedError,
    JobPendingError,
    RunRequest,
    SimulationService,
    UnknownRunError,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from fastapi import FastAPI

__all__ = [
    "CacheEntry",
    "Job",
    "JobFailedError",
    "JobPendingError",
    "JobQueue",
    "JobState",
    "QueueFullError",
    "ResultCache",
    "RunRequest",
    "ServeAvailability",
    "SimulationService",
    "UnknownRunError",
    "availability",
    "canonical_cache_key",
    "create_app",
    "run_encoding",
]


def create_app(*args: Any, **kwargs: Any) -> "FastAPI":
    """Build the FastAPI app, or fail with one clean line without the extra.

    Probes :func:`availability` first so a deployment missing the
    ``[serve]`` extra sees ``ConfigurationError: fastapi is not importable
    (...); install the [serve] extra`` instead of an ImportError traceback.
    See :func:`repro.serve.app.create_app` for the parameters.
    """
    status = availability()
    if not status.enabled:
        raise ConfigurationError(f"the HTTP serving layer is unavailable: {status.reason}")
    from repro.serve.app import create_app as _create_app

    return _create_app(*args, **kwargs)
