"""Equivalence tests pinning the scenario rewrite to the legacy outputs.

``tests/data/golden_experiments.json`` was generated by the pre-scenario
implementation of the nine paper experiments (the ad-hoc trial loops),
under tiny deterministic presets.  These tests assert that the declarative
specs running through ``run_scenario`` reproduce those outputs
*bit-identically* — rows, series, description and the legacy metadata keys —
for the default engines and for explicit sequential/ensemble runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.engine.options import ExecutionOptions
from repro.experiments.base import ExperimentPreset
from repro.scenarios import run_scenario

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_experiments.json"


def _preset(sizes, t, trials, seed, **extra) -> ExperimentPreset:
    return ExperimentPreset(
        name="golden",
        population_sizes=tuple(sizes),
        parallel_time=t,
        trials=trials,
        seed=seed,
        extra=extra,
    )


#: case id -> (scenario, preset, engine); mirrors the generator script.
#: ``None`` runs the scenario's pinned engine.
CASES = {
    "fig2": ("fig2", _preset((200,), 150, 2, 7), None),
    "fig3": ("fig3", _preset((200,), 150, 2, 7), None),
    "fig4": ("fig4", _preset((200,), 150, 2, 7, drop_time=40, keep=20), None),
    "fig5": ("fig5", _preset((200,), 150, 2, 7, initial_estimate=30.0), None),
    "convergence": (
        "convergence",
        _preset((200,), 150, 2, 7, initial_estimates=(1.0, 30.0)),
        None,
    ),
    "holding": ("holding", _preset((200,), 150, 2, 7), None),
    "memory": ("memory", _preset((80,), 60, 1, 5), None),
    "phase_clock": ("phase_clock", _preset((60,), 300, 1, 5), None),
    "baseline": ("baseline", _preset((150,), 300, 1, 5, drop_time=100, keep=20), None),
    "fig2_sequential": ("fig2", _preset((60,), 40, 2, 9), "sequential"),
    "fig4_ensemble": ("fig4", _preset((120,), 80, 3, 11, drop_time=30, keep=20), "ensemble"),
}


def _equal(a, b) -> bool:
    """Deep equality where NaN == NaN (floats otherwise compared exactly)."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b


def _canon(obj):
    """Round-trip through JSON so tuples/ints match the golden encoding."""
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_scenario_matches_golden(case, golden):
    """The registry path (name -> run_scenario) is output-identical."""
    name, preset, engine = CASES[case]
    expected = golden[case]
    result = run_scenario(name, preset=preset, options=ExecutionOptions(engine=engine))
    assert result.experiment == expected["experiment"]
    assert result.description == expected["description"]
    assert _equal(_canon(result.rows), expected["rows"]), f"{case}: rows diverged"
    assert _equal(_canon(result.series), expected["series"]), f"{case}: series diverged"
    for key, value in expected["metadata"].items():
        assert _equal(_canon(result.metadata.get(key)), value), (
            f"{case}: metadata[{key!r}] diverged"
        )
