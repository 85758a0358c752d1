"""Decorator-based scenario registry.

Scenarios register themselves with :func:`scenario` (on a builder function
returning a :class:`repro.scenarios.spec.ScenarioSpec`) or directly with
:func:`register`.  The built-in catalog — the nine workloads of the paper's
evaluation plus the adversarial scenarios that go beyond it — is loaded
lazily on first lookup so that importing this module stays cheap and free of
import cycles.

Example
-------
>>> from repro.scenarios import ScenarioSpec, scenario
>>> @scenario
... def my_workload():
...     return ScenarioSpec(name="my_workload", description="...", metrics=(...,))
>>> from repro.scenarios import get_scenario, run_scenario
>>> result = run_scenario(get_scenario("my_workload"), effort="quick")
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.engine.errors import ConfigurationError
from repro.engine.parallel import note_registry_change
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "scenario",
    "register",
    "unregister",
    "get_scenario",
    "has_scenario",
    "scenario_names",
    "iter_scenarios",
]

_SCENARIOS: dict[str, ScenarioSpec] = {}
_catalog_loaded = False


def register(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    """Register a spec under its name; returns the spec unchanged.

    Re-registering a name raises unless ``replace=True`` — silently
    shadowing a published scenario is almost always a bug.
    """
    if not replace and spec.name in _SCENARIOS:
        raise ConfigurationError(
            f"scenario {spec.name!r} is already registered; pass replace=True "
            "to override it"
        )
    _SCENARIOS[spec.name] = spec
    note_registry_change()
    return spec


def scenario(
    builder: Callable[[], ScenarioSpec] | None = None, *, replace: bool = False
) -> Callable:
    """Decorator registering the :class:`ScenarioSpec` a builder returns.

    Usable bare (``@scenario``) or with options (``@scenario(replace=True)``).
    The builder is invoked once at decoration time; the decorated name is
    rebound to the built spec so modules can refer to it directly.
    """

    def decorate(fn: Callable[[], ScenarioSpec]) -> ScenarioSpec:
        spec = fn()
        if not isinstance(spec, ScenarioSpec):
            raise ConfigurationError(
                f"@scenario builder {fn.__name__!r} must return a ScenarioSpec, "
                f"got {type(spec).__name__}"
            )
        return register(spec, replace=replace)

    if builder is not None:
        return decorate(builder)
    return decorate


def unregister(name: str) -> None:
    """Remove a registered scenario (primarily for tests)."""
    _SCENARIOS.pop(name, None)


def _ensure_catalog_loaded() -> None:
    """Import the built-in scenario definitions exactly once."""
    global _catalog_loaded
    if _catalog_loaded:
        return
    _catalog_loaded = True
    # The nine figure and table modules of repro.experiments each register
    # their spec on import; the catalog module adds the adversarial
    # scenarios beyond the paper.
    import repro.experiments  # noqa: F401
    import repro.scenarios.catalog  # noqa: F401


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    _ensure_catalog_loaded()
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(scenario_names())}"
        ) from None


def has_scenario(name: str) -> bool:
    _ensure_catalog_loaded()
    return name in _SCENARIOS


def scenario_names() -> list[str]:
    """Sorted names of all registered scenarios."""
    _ensure_catalog_loaded()
    return sorted(_SCENARIOS)


def iter_scenarios() -> Iterable[ScenarioSpec]:
    """All registered scenarios, sorted by name."""
    _ensure_catalog_loaded()
    return [_SCENARIOS[name] for name in sorted(_SCENARIOS)]
