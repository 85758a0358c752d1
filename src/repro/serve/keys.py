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
* the sweep grid, when the run is a sweep,
* the code that computes it: :func:`package_digest` of the ``repro``
  package, its ``.py`` files and bundled trace CSVs.

Two requests get the same key exactly when replaying either would write the
other's artifacts.  Any edit to the package, this encoding included,
changes every key, so a cached result or a crashed job's checkpoints
(whose directory serve names after the key) never outlive the code that
produced them.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine.parallel import resolve_workers
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, SweepSpec, canonical_json

if TYPE_CHECKING:  # pragma: no cover - type-only import (layering)
    from repro.experiments.base import ExperimentPreset

__all__ = [
    "canonical_cache_key",
    "normalize_engine_request",
    "package_digest",
    "run_encoding",
]

#: Root of the ``repro`` package whose files :func:`package_digest` hashes.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def package_digest(root: str | Path) -> str:
    """SHA-256 over a package tree's ``.py`` files and ``scenarios/data/*.csv``.

    Files are taken in sorted relative-path order, ``__pycache__`` excluded,
    and each contributes its relative path and the SHA-256 of its bytes, so
    an edit, a rename, an added or a deleted file all change the digest.
    """
    root = Path(root)
    files = {
        path.relative_to(root).as_posix(): path
        for path in (*root.rglob("*.py"), *(root / "scenarios" / "data").glob("*.csv"))
        if "__pycache__" not in path.parts
    }
    digest = hashlib.sha256()
    for relative in sorted(files):
        content = hashlib.sha256(files[relative].read_bytes()).hexdigest()
        digest.update(f"{relative}\0{content}\n".encode())
    return digest.hexdigest()


@functools.cache
def _code_digest() -> str:
    """:func:`package_digest` of the running package, computed once per process."""
    return package_digest(_PACKAGE_ROOT)


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

    ``code`` is the running package's :func:`package_digest`.  ``seed``
    overrides the preset's root seed when given (the preset already
    carries one).  ``workers`` is resolved through
    :func:`repro.engine.parallel.resolve_workers` first, so ``"auto"`` keys
    on the concrete count it resolves to on this host.
    """
    spec = get_scenario(spec_or_name) if isinstance(spec_or_name, str) else spec_or_name
    if seed is not None:
        preset = preset.with_overrides(seed=int(seed))
    return {
        "code": _code_digest(),
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
