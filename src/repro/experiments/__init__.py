"""The paper's evaluation: one module per figure/table, each registering its scenario.

Importing this package registers the nine :class:`~repro.scenarios.spec.ScenarioSpec`
declarations (``fig2``–``fig5``, ``convergence``, ``holding``, ``memory``,
``phase_clock`` and ``baseline``); run any of them with
:func:`repro.scenarios.run_scenario`.
"""

from repro.experiments import baseline_comparison  # noqa: F401
from repro.experiments import convergence_table  # noqa: F401
from repro.experiments import fig2_size_estimate  # noqa: F401
from repro.experiments import fig3_relative_error  # noqa: F401
from repro.experiments import fig4_population_drop  # noqa: F401
from repro.experiments import fig5_initial_estimate  # noqa: F401
from repro.experiments import holding_table  # noqa: F401
from repro.experiments import memory_table  # noqa: F401
from repro.experiments import phase_clock_experiment  # noqa: F401
from repro.experiments.base import ExperimentPreset, ExperimentResult
from repro.experiments.config import PRESETS, list_presets
from repro.experiments.figures import EstimateTrace, run_estimate_trace

__all__ = [
    "EstimateTrace",
    "ExperimentPreset",
    "ExperimentResult",
    "PRESETS",
    "list_presets",
    "run_estimate_trace",
]
