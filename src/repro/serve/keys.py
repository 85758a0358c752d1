"""Run-level cache keys: one stable SHA-256 per distinct computation.

Every run in this reproduction is a frozen :class:`ScenarioSpec` (or
:class:`SweepSpec` grid) executed at a concrete preset under a
:class:`~repro.engine.rng.SeedTree`-addressed random stream — a pure
function of its declarative inputs.  Identical requests are therefore
provably identical computations, which is the property that makes a
content-addressed result cache *correct* rather than merely heuristic.

:func:`canonical_cache_key` hashes the canonical JSON encoding
(:func:`repro.scenarios.spec.canonical_json`: field-order and float-repr
invariant) of everything that can influence the produced artifact bytes:

* the scenario's declarative identity (:meth:`ScenarioSpec.canonical_encoding`),
* the fully resolved preset (sizes, horizon, trials, seed, extra knobs —
  including sweep-applied ``params_overrides``),
* the normalised engine request and the resolved worker count (the worker
  count does not change the simulated rows — determinism holds across it —
  but it is recorded in result metadata, so two runs differing in it
  produce different artifact bytes and must not share an entry),
* the sweep grid, when the run is a sweep.

Two requests get the same key exactly when replaying either would write the
other's artifacts.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

from repro.engine.parallel import resolve_workers
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, SweepSpec, canonical_json

if TYPE_CHECKING:  # pragma: no cover - type-only import (layering)
    from repro.experiments.base import ExperimentPreset

__all__ = ["KEY_SCHEMA_VERSION", "canonical_cache_key", "normalize_engine_request", "run_encoding"]

#: Bumped whenever the encoding below changes shape, or the same request
#: starts producing different rows — old cache entries then miss (and are
#: rewritten) instead of being served with stale semantics.
#: v2: ScenarioSpec.canonical_encoding gained ``schedule_kind``/``knobs``.
#: v3: the counts engine draws different rows for the same request (its
#: multinomials take their categories in descending-probability order).
#: v4: the ``batched`` engine is a one-row ensemble and draws different rows
#: for the same request.
#: v5: auto-selection no longer has a small-population tier, so auto points
#: with ``n <= 128`` run on ``ensemble`` / ``batched`` and draw different
#: rows for the same request.
#: v6: ScenarioSpec.canonical_encoding lost ``protocol_factory``.
#: v7: the encoding and result metadata lost the compiled-kernel request
#: flag, with the compiled backend.
KEY_SCHEMA_VERSION = 7


def normalize_engine_request(spec: ScenarioSpec, engine: str | None) -> str:
    """Collapse equivalent engine requests onto one canonical spelling.

    ``None`` means "the spec's pinned engine, else auto-select" — for a spec
    without a pinned engine that is the *same computation* as an explicit
    ``"auto"``, so both map to ``"auto"`` and share cache entries.  For a
    pinned spec, ``None`` resolves to the pinned name while ``"auto"`` keeps
    forcing per-point selection, so they stay distinct.
    """
    if engine is None:
        return spec.engine if spec.engine is not None else "auto"
    return engine


def run_encoding(
    spec_or_name: ScenarioSpec | str,
    preset: "ExperimentPreset",
    *,
    seed: int | None = None,
    engine: str | None = None,
    workers: int | str | None = None,
    sweep: SweepSpec | None = None,
) -> dict[str, Any]:
    """The JSON-encodable identity of one run request (pre-hash).

    ``seed`` overrides the preset's root seed when given (the preset already
    carries one).  ``workers`` is resolved through
    :func:`repro.engine.parallel.resolve_workers` first, so ``"auto"`` keys
    on the concrete count it resolves to on this host.
    """
    spec = get_scenario(spec_or_name) if isinstance(spec_or_name, str) else spec_or_name
    if seed is not None:
        preset = preset.with_overrides(seed=int(seed))
    return {
        "schema": KEY_SCHEMA_VERSION,
        "scenario": spec.canonical_encoding(),
        "preset": {
            "name": preset.name,
            "population_sizes": list(preset.population_sizes),
            "parallel_time": preset.parallel_time,
            "trials": preset.trials,
            "seed": preset.seed,
            "extra": dict(preset.extra),
        },
        "engine": normalize_engine_request(spec, engine),
        "workers": resolve_workers(workers),
        "sweep": sweep.canonical_encoding() if sweep is not None else None,
    }


def canonical_cache_key(
    spec_or_name: ScenarioSpec | str,
    preset: "ExperimentPreset",
    *,
    seed: int | None = None,
    engine: str | None = None,
    workers: int | str | None = None,
    sweep: SweepSpec | None = None,
) -> str:
    """SHA-256 hex digest of :func:`run_encoding`.

    Stable across processes, dict orderings and float spellings; distinct
    across any semantic difference in the request.  Used as both the cache
    directory name and the public run id.
    """
    encoding = canonical_json(
        run_encoding(
            spec_or_name,
            preset,
            seed=seed,
            engine=engine,
            workers=workers,
            sweep=sweep,
        )
    )
    return hashlib.sha256(encoding.encode("ascii")).hexdigest()
