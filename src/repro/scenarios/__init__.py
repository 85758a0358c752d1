"""Declarative scenario API.

Everything needed to author, register, run and sweep a workload on the
dynamic population model:

* :class:`ScenarioSpec` / :class:`ScenarioPoint` — frozen workload specs
  (:mod:`repro.scenarios.spec`);
* :func:`scenario` / :func:`register` / :func:`get_scenario` /
  :func:`scenario_names` — the registry (:mod:`repro.scenarios.registry`);
* :func:`run_scenario` / :func:`run_sweep` — execution with automatic
  engine selection (:mod:`repro.scenarios.runner`);
* :mod:`repro.scenarios.schedules` — adversary schedule builders returning
  plain ``(time, size)`` pairs;
* :mod:`repro.scenarios.traces` — CSV load curves replayed as resize
  schedules (:class:`Trace`, :func:`bundled_trace`);
* :mod:`repro.scenarios.phases` — multi-phase timelines (:class:`Phase`,
  :func:`chain_phases`) with per-phase metrics;
* :mod:`repro.scenarios.fuzz` — the seeded property-based scenario fuzzer;
* :mod:`repro.scenarios.metrics` — reusable metric extractors;
* :mod:`repro.scenarios.catalog` — the adversarial scenarios beyond the
  paper's figures.

:func:`run_scenario` and :func:`run_sweep` take ``effort``/``preset`` as
keywords (what runs) and every execution setting (engine, workers,
checkpointing) only as ``options=``
:class:`repro.engine.options.ExecutionOptions`, re-exported here.
"""

from repro.engine.options import ExecutionOptions
from repro.scenarios.registry import (
    get_scenario,
    has_scenario,
    iter_scenarios,
    register,
    scenario,
    scenario_names,
    unregister,
)
from repro.scenarios.listing import scenario_listing
from repro.scenarios.phases import Phase, chain_phases, phase_boundaries
from repro.scenarios.runner import run_scenario, run_sweep
from repro.scenarios.spec import (
    ScenarioPoint,
    ScenarioSpec,
    SweepSpec,
    canonical_json,
    valid_sweep_axes,
)
from repro.scenarios.traces import Trace, bundled_trace, bundled_trace_names

__all__ = [
    "ExecutionOptions",
    "Phase",
    "ScenarioPoint",
    "ScenarioSpec",
    "SweepSpec",
    "Trace",
    "bundled_trace",
    "bundled_trace_names",
    "canonical_json",
    "chain_phases",
    "phase_boundaries",
    "scenario_listing",
    "get_scenario",
    "has_scenario",
    "iter_scenarios",
    "register",
    "run_scenario",
    "run_sweep",
    "scenario",
    "scenario_names",
    "unregister",
    "valid_sweep_axes",
]
