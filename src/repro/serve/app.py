"""FastAPI transport over :class:`repro.serve.service.SimulationService`.

This module imports FastAPI at import time and therefore needs the optional
``[serve]`` extra — use :func:`repro.serve.create_app`, which probes
availability first and raises a clean one-line error when the extra is
missing.  Everything here is translation: pydantic request models in,
service payloads out, service exceptions mapped onto HTTP status codes.

Endpoints
---------
``POST /runs``
    Validated submission.  A cache hit answers 200 with ``cached: true``;
    a miss enqueues and answers 202; a full queue answers 429.
``GET /runs/{run_id}``
    Job status and timings (404 for unknown ids).
``GET /runs/{run_id}/result``
    The run's artifacts: JSON payload, or one result's rows as CSV with
    ``?format=csv[&index=i]``.  409 while queued/running, 500 when failed.
``GET /scenarios``
    The shared machine-readable scenario listing (same formatter as
    ``repro-experiments list --json``).
``GET /healthz``
    Engine capabilities, serve availability, queue depth, cache stats.
"""

from __future__ import annotations

import os
from typing import Any, Literal

from fastapi import FastAPI, HTTPException, Response
from pydantic import BaseModel, ConfigDict, Field

from repro.engine.errors import EngineError
from repro.serve.jobs import QueueFullError
from repro.serve.service import (
    JobFailedError,
    JobPendingError,
    RunRequest,
    SimulationService,
    UnknownRunError,
)

__all__ = ["CACHE_DIR_ENV", "RunRequestModel", "create_app"]

#: Environment override for the cache directory used by :func:`create_app`
#: when no service is passed (e.g. when launched via ``uvicorn --factory``).
CACHE_DIR_ENV = "REPRO_SERVE_CACHE_DIR"


class RunRequestModel(BaseModel):
    """Body of ``POST /runs`` — mirrors :class:`repro.serve.service.RunRequest`.

    Unknown fields are a 422, so a setting the service does not have is
    refused rather than dropped.
    """

    model_config = ConfigDict(extra="forbid")

    scenario: str
    effort: str = "quick"
    engine: str | None = None
    workers: int | Literal["auto"] | None = Field(
        default=None, description="Worker processes for sharded execution."
    )
    seed: int | None = None
    overrides: dict[str, Any] | None = None
    sweep: dict[str, list[Any]] | None = None

    def to_request(self) -> RunRequest:
        return RunRequest(
            scenario=self.scenario,
            effort=self.effort,
            engine=self.engine,
            workers=self.workers,
            seed=self.seed,
            overrides=self.overrides,
            sweep=self.sweep,
        )


def create_app(
    service: SimulationService | None = None,
    *,
    cache_dir: str | None = None,
    max_cache_bytes: int | None = None,
    max_workers: int = 2,
    max_pending: int = 64,
) -> FastAPI:
    """Build the serving app around an existing or freshly built service.

    With no arguments (the ``uvicorn --factory`` path) the cache directory
    comes from ``$REPRO_SERVE_CACHE_DIR``, defaulting to
    ``.repro-serve-cache`` in the working directory.
    """
    if service is None:
        service = SimulationService(
            cache_dir or os.environ.get(CACHE_DIR_ENV, ".repro-serve-cache"),
            max_cache_bytes=max_cache_bytes,
            max_workers=max_workers,
            max_pending=max_pending,
        )

    app = FastAPI(
        title="repro-dynamic-size-counting",
        description=(
            "Simulation-as-a-service over the scenario registry of the "
            "Kaaser-Lohmann dynamic size counting reproduction.  Identical "
            "requests are identical computations (deterministic SeedTree), "
            "so repeats are served from the content-addressed result cache."
        ),
    )
    app.state.service = service

    @app.on_event("shutdown")
    def _shutdown() -> None:  # pragma: no cover - process teardown
        service.close()

    @app.post("/runs")
    def submit_run(body: RunRequestModel, response: Response) -> dict[str, Any]:
        try:
            payload = service.submit(body.to_request())
        except QueueFullError as exc:
            raise HTTPException(status_code=429, detail=str(exc)) from exc
        except EngineError as exc:
            # ConfigurationError / UnsupportedEngineError: a bad request,
            # rejected before any simulation started.
            raise HTTPException(status_code=422, detail=str(exc)) from exc
        response.status_code = 200 if payload["cached"] else 202
        return payload

    @app.get("/runs/{run_id}")
    def run_status(run_id: str) -> dict[str, Any]:
        try:
            return service.status(run_id)
        except UnknownRunError as exc:
            raise HTTPException(status_code=404, detail=f"unknown run {run_id}") from exc

    @app.get("/runs/{run_id}/result")
    def run_result(
        run_id: str, format: Literal["json", "csv"] = "json", index: int = 0
    ) -> Any:
        try:
            if format == "csv":
                text = service.result_csv(run_id, index=index)
                return Response(content=text, media_type="text/csv")
            return service.result_payload(run_id)
        except UnknownRunError as exc:
            raise HTTPException(status_code=404, detail=str(exc)) from exc
        except JobPendingError as exc:
            raise HTTPException(status_code=409, detail=str(exc)) from exc
        except JobFailedError as exc:
            raise HTTPException(status_code=500, detail=str(exc)) from exc

    @app.get("/scenarios")
    def scenarios() -> list[dict[str, Any]]:
        return service.scenarios()

    @app.get("/healthz")
    def healthz() -> dict[str, Any]:
        return service.health()

    return app
