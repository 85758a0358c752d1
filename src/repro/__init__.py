"""repro — reproduction of "Dynamic Size Counting in the Population Protocol Model".

The package is organised into layers; see the subpackages for the full surface:

* :mod:`repro.engine` — simulation substrate (scheduler, population, adversaries).
* :mod:`repro.protocols` — toolbox protocols and baselines.
* :mod:`repro.core` — the paper's dynamic size counting protocol and phase clock.
* :mod:`repro.analysis` — metrics, theory bounds and result post-processing.
* :mod:`repro.scenarios` — declarative scenario API (specs, registry, sweeps).
* :mod:`repro.experiments` — the paper's figures/tables as registered scenarios.

The most commonly used classes are re-exported lazily at the top level so
that ``import repro`` stays cheap while ``repro.DynamicSizeCounting`` still
works for interactive use.
"""

from __future__ import annotations

from typing import Any

__version__ = "1.0.0"

#: Top-level convenience re-exports, resolved lazily on attribute access.
_LAZY_EXPORTS = {
    "Simulator": "repro.engine.simulator",
    "EnsembleSimulator": "repro.engine.ensemble_engine",
    "Population": "repro.engine.population",
    "RandomSource": "repro.engine.rng",
    "run_engine_trials": "repro.engine.runner",
    "DynamicSizeCounting": "repro.core.dynamic_counting",
    "SimplifiedDynamicSizeCounting": "repro.core.simplified",
    "UniformPhaseClock": "repro.core.phase_clock",
    "ProtocolParameters": "repro.core.params",
    "empirical_parameters": "repro.core.params",
    "theory_parameters": "repro.core.params",
    "ScenarioSpec": "repro.scenarios",
    "ScenarioPoint": "repro.scenarios",
    "SweepSpec": "repro.scenarios",
    "scenario": "repro.scenarios",
    "get_scenario": "repro.scenarios",
    "scenario_names": "repro.scenarios",
    "run_scenario": "repro.scenarios",
    "run_sweep": "repro.scenarios",
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str) -> Any:
    """Lazily resolve the convenience re-exports listed in ``_LAZY_EXPORTS``."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
