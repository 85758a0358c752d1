"""Declarative scenario specifications.

A *scenario* is a workload on the dynamic population model: a protocol, an
adversarial size schedule, a horizon, a trial count, and the metrics
extracted from the resulting estimate traces.  :class:`ScenarioSpec` captures
all of that as frozen data so that a new workload is ~20 lines of spec
instead of a bespoke module with its own trial loop and engine plumbing.  Specs are registered in :mod:`repro.scenarios.registry` and
executed by :func:`repro.scenarios.runner.run_scenario`, which auto-selects
the best engine via :func:`repro.engine.registry.choose_engine` unless the
spec pins one.

A spec expands an :class:`repro.experiments.base.ExperimentPreset` into
:class:`ScenarioPoint` workload points (one per data point of the regenerated
figure/table: a population size, a seed, an adversary schedule, ...).  Each
point is run through :func:`repro.experiments.figures.run_estimate_trace`
and summarised into one result row by the spec's metric extractors.
Scenarios whose measurements need the exact sequential engine's recorder
machinery (memory accounting, per-event tick traces) instead provide an
``executor`` and keep the same registry/CLI/sweep surface.

:class:`SweepSpec` expands a parameter grid — over ``n``, protocol constants
and adversary knobs — into per-combination presets, turning one scenario
into a family of runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core.params import ProtocolParameters, empirical_parameters
from repro.engine.api import resize_events
from repro.engine.errors import ConfigurationError
from repro.engine.registry import engine_names

if TYPE_CHECKING:  # pragma: no cover - the experiments layer imports this
    # module at definition time, so the runtime dependency must stay one-way.
    from repro.experiments.base import ExperimentPreset

__all__ = [
    "ScenarioPoint",
    "ScenarioSpec",
    "SweepSpec",
    "canonical_json",
    "default_points",
    "valid_sweep_axes",
]

#: ``ExperimentPreset`` fields a sweep axis may target directly.
_PRESET_FIELDS = ("parallel_time", "trials", "seed")

#: ``ProtocolParameters`` fields a sweep axis may target (routed into
#: ``preset.extra["params_overrides"]`` and applied by ``run_scenario``).
_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(ProtocolParameters))


# ------------------------------------------------------- canonical encoding


def _canonicalize(value: Any) -> Any:
    """Normalise a value for :func:`canonical_json`.

    Mappings become plain dicts with string keys (ordering is erased by the
    sorted dump), sequences become lists, sets are sorted, and floats that
    hold an exact integer collapse to that integer so ``5`` and ``5.0`` (or
    ``seed=20240508`` vs ``seed=20240508.0`` coming in over JSON) encode —
    and therefore hash — identically.  Non-finite floats are rejected: they
    have no canonical JSON spelling.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigurationError(
                f"non-finite float {value!r} has no canonical encoding"
            )
        return int(value) if value.is_integer() else value
    if isinstance(value, Mapping):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"canonical encoding needs string keys, got {key!r}"
                )
            out[key] = _canonicalize(value[key])
        return out
    if isinstance(value, (set, frozenset)):
        return sorted(_canonicalize(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    raise ConfigurationError(
        f"value {value!r} of type {type(value).__name__} has no canonical "
        "JSON encoding"
    )


def canonical_json(value: Any) -> str:
    """Stable JSON encoding: field-order and float-repr invariant.

    Two values that differ only in dict insertion order, tuple-vs-list
    container type, or integral-float-vs-int spelling produce byte-identical
    output; any semantic difference produces different output.  This is the
    encoding under every cache key in :mod:`repro.serve` — changing it
    invalidates all content-addressed artifacts, which is why
    ``tests/test_serve_keys.py`` pins golden hashes.
    """
    return json.dumps(
        _canonicalize(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def _callable_id(fn: Any) -> str | None:
    """Stable identity of a spec callable: ``module:qualname``.

    Callables cannot be value-encoded, but a registered scenario's behaviour
    is pinned by *which* functions it composes — the qualified name captures
    exactly that (two different metric extractors get different ids; the
    same extractor is stable across processes).
    """
    if fn is None:
        return None
    module = getattr(fn, "__module__", None) or "<unknown>"
    qualname = getattr(fn, "__qualname__", None)
    if qualname is None:
        qualname = type(fn).__qualname__
    return f"{module}:{qualname}"


@dataclass(frozen=True)
class ScenarioPoint:
    """One data point of a scenario: a fully specified workload.

    Attributes
    ----------
    n:
        Initial population size.
    seed:
        Root seed for this point (per-trial streams are spawned from it).
    parallel_time:
        Simulation horizon in parallel time units.
    trials:
        Independent repetitions aggregated into this point.
    resize_schedule:
        ``(parallel_time, target_size)`` pairs, stored as plain pairs in
        the order given (so the point's cache key follows its spelling)
        and validated here by :func:`repro.engine.api.resize_events`, the
        same check every engine makes, so a bad schedule fails when the
        point is built, not mid-run.
    initial_estimate:
        If set, all agents start with this estimate instead of the empty
        initial configuration; it must be positive and finite.
    label:
        Series key for this point in the result (defaults to ``n_<n>``).
    info:
        Extra context forwarded to metric extractors (e.g. the raw initial
        estimate of a convergence sweep).
    """

    n: int
    seed: int
    parallel_time: int
    trials: int
    resize_schedule: tuple[tuple[int, int], ...] = ()
    initial_estimate: float | None = None
    label: str | None = None
    info: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"population size must be at least 2, got {self.n}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be at least 1, got {self.trials}")
        if self.parallel_time < 1:
            raise ConfigurationError(
                f"parallel_time must be at least 1, got {self.parallel_time}"
            )
        if self.initial_estimate is not None and not (
            math.isfinite(self.initial_estimate) and self.initial_estimate > 0
        ):
            raise ConfigurationError(
                "initial_estimate must be positive and finite, got "
                f"{self.initial_estimate}"
            )
        normalized = tuple((int(t), int(s)) for t, s in self.resize_schedule)
        object.__setattr__(self, "resize_schedule", normalized)
        resize_events(normalized)

    @property
    def series_label(self) -> str:
        return self.label if self.label is not None else f"n_{self.n}"


def default_points(
    preset: ExperimentPreset, params: ProtocolParameters
) -> tuple[ScenarioPoint, ...]:
    """One point per population size, seeded ``preset.seed + n``."""
    return tuple(
        ScenarioPoint(
            n=n,
            seed=preset.seed + n,
            parallel_time=preset.parallel_time,
            trials=preset.trials,
        )
        for n in preset.population_sizes
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """Frozen declarative description of one scenario.

    Attributes
    ----------
    name:
        Registry / CLI identifier.
    description:
        One-line summary shown by ``repro-experiments list``.
    points:
        ``(preset, params) -> Sequence[ScenarioPoint]`` expanding a preset
        into workload points; defaults to :func:`default_points`.
    metrics:
        Metric extractors ``(trace, point, preset, params) -> mapping``;
        their outputs are merged (in order) into the point's result row.
    params_factory:
        Builds the protocol constants (defaults to the paper's empirical
        preset); sweeps may override individual fields via
        ``preset.extra["params_overrides"]``.
    keep_series:
        Whether the per-point aggregated traces are kept on the result.
    engines:
        Engine names this scenario supports (defaults to every registered
        engine at spec-construction time); requesting any other engine
        raises :class:`repro.engine.errors.UnsupportedEngineError`.
    engine:
        Pinned default engine.  ``None`` (the default) means the runner
        auto-selects per point via
        :func:`repro.engine.registry.choose_engine`.  The legacy paper
        scenarios pin their historical engines so that default outputs stay
        bit-identical to the published runs.
    executor:
        Escape hatch ``(spec, preset, params, engine) -> ExperimentResult``
        for scenarios that need bespoke measurement machinery (recorders,
        per-event traces).  Such specs ignore ``points``/``metrics``, run
        serially and reject ``workers`` and checkpointing.
    experiment_id:
        Identifier stamped on the :class:`ExperimentResult` (and used for
        preset lookup); defaults to ``name``.
    describe:
        Optional ``(preset) -> str`` producing the result description from
        preset knobs (e.g. Fig. 4's decimation parameters).
    tags:
        Free-form labels (``"paper"``, ``"adversarial"``, ...) used by
        listings.
    schedule_kind:
        The family this scenario's resize adversary belongs to
        (``"oscillation"``, ``"trace"``, ``"multi_phase"``, ...); ``None``
        for scenarios without one.  The schedules themselves are plain
        pairs, so this is the one record of the family.  Shown by CLI
        ``list`` and the serve listing.
    knobs:
        Workload knob names this scenario reads from ``preset.extra``
        beyond the keys its presets already carry (e.g. a knob with a
        built-in default); declares them as valid sweep axes.
    """

    name: str
    description: str
    points: Callable[
        [ExperimentPreset, ProtocolParameters], Sequence[ScenarioPoint]
    ] = default_points
    metrics: tuple[
        Callable[
            [Any, ScenarioPoint, ExperimentPreset, ProtocolParameters],
            Mapping[str, Any],
        ],
        ...,
    ] = ()
    params_factory: Callable[[], ProtocolParameters] = empirical_parameters
    keep_series: bool = False
    engines: tuple[str, ...] = field(default_factory=engine_names)
    engine: str | None = None
    executor: (
        Callable[
            ["ScenarioSpec", ExperimentPreset, ProtocolParameters, str],
            Any,
        ]
        | None
    ) = None
    experiment_id: str | None = None
    describe: Callable[[ExperimentPreset], str] | None = None
    tags: tuple[str, ...] = ()
    schedule_kind: str | None = None
    knobs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        unknown = set(self.engines) - set(engine_names())
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r} lists unknown engines: {sorted(unknown)}; "
                f"available: {', '.join(engine_names())}"
            )
        if not self.engines:
            raise ConfigurationError(f"scenario {self.name!r} must support some engine")
        if self.engine is not None and self.engine not in self.engines:
            raise ConfigurationError(
                f"scenario {self.name!r} pins engine {self.engine!r} but only "
                f"supports: {', '.join(self.engines)}"
            )
        if self.executor is None and not self.metrics:
            raise ConfigurationError(
                f"scenario {self.name!r} needs at least one metric extractor "
                "(or a bespoke executor)"
            )

    @property
    def id(self) -> str:
        """Identifier stamped on results and used for preset lookup."""
        return self.experiment_id or self.name

    def description_for(self, preset: ExperimentPreset) -> str:
        return self.describe(preset) if self.describe is not None else self.description

    def supports_engine(self, engine: str) -> bool:
        return engine in self.engines

    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """Return a copy with selected fields replaced."""
        return dataclasses.replace(self, **overrides)

    def canonical_encoding(self) -> dict[str, Any]:
        """Declarative identity of this spec as plain JSON-encodable data.

        Value fields are carried verbatim; callable fields (points, metrics,
        factories, executor) are carried by qualified name — the registered
        code composing a scenario *is* part of its identity, so swapping a
        metric extractor changes the encoding even when everything else
        matches.
        """
        return {
            "name": self.name,
            "experiment_id": self.id,
            "description": self.description,
            "engine": self.engine,
            "engines": list(self.engines),
            "keep_series": self.keep_series,
            "tags": list(self.tags),
            "schedule_kind": self.schedule_kind,
            "knobs": list(self.knobs),
            "points": _callable_id(self.points),
            "metrics": [_callable_id(metric) for metric in self.metrics],
            "params_factory": _callable_id(self.params_factory),
            "executor": _callable_id(self.executor),
            "describe": _callable_id(self.describe),
        }

    def cache_key(self) -> str:
        """SHA-256 over :meth:`canonical_encoding` (hex digest).

        Equal specs produce equal keys regardless of how their field values
        were spelled; any differing field produces a different key.  This is
        the spec-level ingredient of the run-level
        :func:`repro.serve.keys.canonical_cache_key`.
        """
        digest = hashlib.sha256(canonical_json(self.canonical_encoding()).encode("ascii"))
        return digest.hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid over one scenario.

    Each axis maps a key to the values it sweeps; :meth:`expand` takes the
    cartesian product and produces one labelled
    :class:`~repro.experiments.base.ExperimentPreset` per combination.  Axis
    keys are routed by name:

    * ``"n"`` replaces the preset's population sizes with the single value
      (a tuple/list value keeps a multi-size point);
    * ``parallel_time`` / ``trials`` / ``seed`` replace the preset field;
    * :class:`~repro.core.params.ProtocolParameters` field names (``tau1``,
      ``k``, ``grv_samples``, ...) are collected into
      ``extra["params_overrides"]`` and applied to the protocol constants by
      the scenario runner;
    * anything else becomes a workload knob in ``preset.extra`` (``keep``,
      ``drop_time``, ``period``, ...).
    """

    scenario: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...]

    @classmethod
    def from_mapping(
        cls, scenario: "str | ScenarioSpec", axes: Mapping[str, Sequence[Any]]
    ) -> "SweepSpec":
        normalized = []
        for key, values in axes.items():
            values = tuple(values)
            if not values:
                raise ConfigurationError(f"sweep axis {key!r} has no values")
            normalized.append((key, values))
        if not normalized:
            raise ConfigurationError("a sweep needs at least one axis")
        _validate_axis_keys(scenario, [key for key, _ in normalized])
        return cls(scenario=scenario, axes=tuple(normalized))

    def canonical_encoding(self) -> dict[str, Any]:
        """Grid identity: the scenario name plus the ordered axes.

        Axis *order* is preserved (it fixes the grid expansion order and
        therefore the result ordering); within each axis the values are
        carried verbatim.
        """
        return {
            "scenario": self.scenario,
            "axes": [[key, list(values)] for key, values in self.axes],
        }

    def cache_key(self) -> str:
        """SHA-256 over :meth:`canonical_encoding` (hex digest)."""
        digest = hashlib.sha256(canonical_json(self.canonical_encoding()).encode("ascii"))
        return digest.hexdigest()

    def combinations(self) -> list[dict[str, Any]]:
        """All axis-value combinations, in deterministic grid order."""
        keys = [key for key, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]

    def expand(
        self, base: ExperimentPreset
    ) -> list[tuple[str, ExperimentPreset]]:
        """Expand into ``(label, preset)`` pairs, one per grid combination."""
        expanded = []
        for combo in self.combinations():
            label = ",".join(f"{key}={value}" for key, value in combo.items())
            expanded.append((label, apply_axis_overrides(base, combo)))
        return expanded


def valid_sweep_axes(spec: ScenarioSpec) -> tuple[str, ...]:
    """Every axis key a sweep over ``spec`` may target, sorted.

    The routable names (``"n"``, preset fields, protocol-parameter fields)
    plus the scenario's workload knobs: the ``preset.extra`` keys its
    registered presets carry, and any extra names the spec declares via
    ``knobs`` (knobs read with a built-in default never appear in a
    preset, so the spec must name them explicitly).
    """
    axes = {"n", *_PRESET_FIELDS, *_PARAM_FIELDS, *spec.knobs}
    # Imported lazily: the experiments layer imports this module at
    # definition time, so the reverse dependency must not be top-level.
    from repro.experiments.config import PRESETS

    for preset in PRESETS.get(spec.id, {}).values():
        axes.update(key for key in preset.extra if key != "params_overrides")
    return tuple(sorted(axes))


def _validate_axis_keys(
    scenario: "str | ScenarioSpec", keys: Sequence[str]
) -> None:
    """Reject unknown axis keys up front (a typo'd axis used to surface as
    a mid-expand ``KeyError``).  Unregistered scenario *names* skip the
    check — there is no spec to validate against until run time.
    """
    if isinstance(scenario, ScenarioSpec):
        spec = scenario
    else:
        from repro.scenarios.registry import get_scenario, has_scenario

        if not has_scenario(scenario):
            return
        spec = get_scenario(scenario)
    valid = valid_sweep_axes(spec)
    unknown = sorted(set(keys) - set(valid))
    if unknown:
        raise ConfigurationError(
            f"unknown sweep axis/axes for scenario {spec.name!r}: "
            f"{', '.join(unknown)}; valid axes: {', '.join(valid)}"
        )


def apply_axis_overrides(
    preset: ExperimentPreset, combo: Mapping[str, Any]
) -> ExperimentPreset:
    """Apply one sweep combination to a preset (see :class:`SweepSpec`)."""
    overrides: dict[str, Any] = {}
    extra: dict[str, Any] = {}
    params_overrides: dict[str, Any] = dict(preset.extra.get("params_overrides", {}))
    for key, value in combo.items():
        if key == "n":
            sizes = tuple(value) if isinstance(value, (tuple, list)) else (int(value),)
            overrides["population_sizes"] = sizes
        elif key in _PRESET_FIELDS:
            overrides[key] = int(value)
        elif key in _PARAM_FIELDS:
            params_overrides[key] = value
        else:
            extra[key] = value
    if params_overrides:
        extra["params_overrides"] = params_overrides
    if extra:
        overrides["extra"] = extra
    return preset.with_overrides(**overrides)
