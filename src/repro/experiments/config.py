"""Experiment presets.

Three effort levels are provided for every experiment:

* ``quick``   — seconds; used by the pytest-benchmark harness and CI.
* ``default`` — minutes on a laptop; good fidelity for every figure.
* ``paper``   — the paper's actual scale (n up to 10^6, 5000 parallel time,
  96 trials); hours of CPU, provided for completeness.

The paper's evaluation parameters (Section 5): populations up to 10^6
agents, 5000 parallel time steps, 96 independent runs per data point,
protocol constants tau_1=6, tau_2=4, tau_3=2, tau'=20, k=16, and for Fig. 4
the decimation to 500 agents at parallel time 1350.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentPreset

__all__ = ["PRESETS", "list_presets", "decimation_knobs"]


def decimation_knobs(preset: ExperimentPreset) -> tuple[int, int]:
    """The decimation workload knobs ``(drop_time, keep)`` of a preset.

    Defaults to the paper's Fig. 4 event — all but 500 agents removed at
    parallel time 1350 — shared by every scenario built on that workload.
    """
    return int(preset.extra.get("drop_time", 1350)), int(preset.extra.get("keep", 500))


def _fig_preset(name: str, sizes: tuple[int, ...], time: int, trials: int, **extra) -> ExperimentPreset:
    return ExperimentPreset(
        name=name,
        population_sizes=sizes,
        parallel_time=time,
        trials=trials,
        extra=extra,
    )


#: Preset registry: ``PRESETS[experiment][effort]``.
PRESETS: dict[str, dict[str, ExperimentPreset]] = {
    # Fig. 2 — estimate over time, single (large) population, empty start.
    "fig2": {
        "quick": _fig_preset("quick", (2_000,), 600, 3),
        "default": _fig_preset("default", (100_000,), 2_000, 8),
        "paper": _fig_preset("paper", (1_000_000,), 5_000, 96),
    },
    # Fig. 3 — relative deviation from log n across population sizes.
    "fig3": {
        "quick": _fig_preset("quick", (10, 100, 1_000), 400, 3),
        "default": _fig_preset("default", (10, 100, 1_000, 10_000, 100_000), 1_500, 8),
        "paper": _fig_preset(
            "paper", (10, 100, 1_000, 10_000, 100_000, 1_000_000), 5_000, 96
        ),
    },
    # Fig. 4 — decimation to 500 agents at parallel time 1350.
    "fig4": {
        "quick": _fig_preset("quick", (2_000,), 900, 3, drop_time=300, keep=100),
        "default": _fig_preset(
            "default", (1_000, 10_000, 100_000), 3_000, 8, drop_time=1350, keep=500
        ),
        "paper": _fig_preset(
            "paper",
            (1_000, 10_000, 100_000, 1_000_000),
            5_000,
            96,
            drop_time=1350,
            keep=500,
        ),
    },
    # Fig. 5 (Appendix B) — populations initialised with an estimate of 60.
    "fig5": {
        # Forgetting an over-estimate of 60 takes roughly two clock rounds of
        # length ~tau_1 * 60 parallel time, so even the quick preset needs a
        # horizon in the low thousands (the paper uses 5000).
        "quick": _fig_preset("quick", (100, 2_000), 2_600, 3, initial_estimate=60.0),
        "default": _fig_preset(
            "default", (10, 100, 1_000, 10_000, 100_000), 3_000, 8, initial_estimate=60.0
        ),
        "paper": _fig_preset(
            "paper",
            (10, 100, 1_000, 10_000, 100_000, 1_000_000),
            5_000,
            96,
            initial_estimate=60.0,
        ),
    },
    # Theorem 2.1 — convergence time vs n and vs initial estimate.
    "convergence": {
        "quick": _fig_preset("quick", (100, 500), 2_000, 3, initial_estimates=(1.0, 30.0)),
        "default": _fig_preset(
            "default", (100, 1_000, 10_000), 2_500, 8, initial_estimates=(1.0, 30.0, 60.0)
        ),
        "paper": _fig_preset(
            "paper",
            (100, 1_000, 10_000, 100_000),
            5_000,
            32,
            initial_estimates=(1.0, 30.0, 60.0, 120.0),
        ),
    },
    # Theorem 2.1 — holding time (lower-bound check within the horizon).
    "holding": {
        "quick": _fig_preset("quick", (200,), 1_200, 3),
        "default": _fig_preset("default", (200, 2_000), 5_000, 8),
        "paper": _fig_preset("paper", (200, 2_000, 20_000), 20_000, 16),
    },
    # Theorem 2.1 — memory bits per agent, ours vs the Doty–Eftekhari baseline.
    "memory": {
        "quick": _fig_preset("quick", (50, 200), 300, 2),
        "default": _fig_preset("default", (50, 200, 1_000, 5_000), 600, 4),
        "paper": _fig_preset("paper", (50, 200, 1_000, 5_000, 20_000), 1_200, 8),
    },
    # Theorem 2.2 — burst/overlap structure of the uniform phase clock.
    "phase_clock": {
        "quick": _fig_preset("quick", (100,), 800, 2),
        "default": _fig_preset("default", (100, 300), 2_000, 4),
        "paper": _fig_preset("paper", (100, 300, 1_000), 5_000, 8),
    },
    # Qualitative baseline comparison (ours vs Doty–Eftekhari vs static max).
    "baseline": {
        "quick": _fig_preset("quick", (300,), 700, 2, drop_time=250, keep=50),
        "default": _fig_preset("default", (1_000,), 2_000, 4, drop_time=700, keep=100),
        "paper": _fig_preset("paper", (5_000,), 4_000, 8, drop_time=1350, keep=500),
    },
    # ------------------------------------------------------------------
    # Adversarial scenario catalog (beyond the paper's figures; see
    # repro.scenarios.catalog).  No engine is pinned: the runner
    # auto-selects via repro.engine.registry.choose_engine.
    # ------------------------------------------------------------------
    # Population oscillates between n and n/shrink_factor every period.
    "oscillate": {
        "quick": _fig_preset("quick", (2_000,), 600, 3, period=150, shrink_factor=10),
        "default": _fig_preset(
            "default", (10_000, 100_000), 2_400, 8, period=400, shrink_factor=10
        ),
        "paper": _fig_preset(
            "paper", (100_000, 1_000_000), 5_000, 48, period=700, shrink_factor=10
        ),
    },
    # Exponential growth for several periods, then a crash.
    "boom_bust": {
        "quick": _fig_preset(
            "quick", (500,), 800, 3, period=120, growth_steps=3, crash_divisor=10
        ),
        "default": _fig_preset(
            "default", (2_000,), 2_400, 8, period=300, growth_steps=4, crash_divisor=10
        ),
        "paper": _fig_preset(
            "paper", (10_000,), 5_000, 48, period=600, growth_steps=5, crash_divisor=10
        ),
    },
    # Sustained random churn: resize to a random size every period.
    "churn": {
        "quick": _fig_preset("quick", (2_000,), 600, 3, period=120, low_divisor=10),
        "default": _fig_preset(
            "default", (10_000,), 2_400, 8, period=250, low_divisor=10
        ),
        "paper": _fig_preset(
            "paper", (100_000,), 5_000, 48, period=400, low_divisor=10
        ),
    },
    # Fig. 4's decimation repeated down to a floor.
    "repeated_decimation": {
        "quick": _fig_preset("quick", (4_000,), 900, 3, period=200, floor=50),
        "default": _fig_preset(
            "default", (50_000,), 2_400, 8, period=400, floor=100
        ),
        "paper": _fig_preset(
            "paper", (1_000_000,), 5_000, 48, period=600, floor=500
        ),
    },
    # ------------------------------------------------------------------
    # Trace-driven and multi-phase scenarios (repro.scenarios.catalog):
    # population dynamics replayed from bundled CSV load curves, and a
    # phased outage/recovery timeline.
    # ------------------------------------------------------------------
    # A flash crowd: calm baseline, a 10x spike, then decay back down.
    "flash_crowd": {
        "quick": _fig_preset("quick", (2_000,), 600, 3, trace="flash_crowd"),
        "default": _fig_preset("default", (20_000,), 2_400, 8, trace="flash_crowd"),
        "paper": _fig_preset("paper", (100_000,), 5_000, 48, trace="flash_crowd"),
    },
    # A day of load: overnight trough, daytime peak, back to baseline.
    "diurnal": {
        "quick": _fig_preset("quick", (2_000,), 600, 3, trace="diurnal"),
        "default": _fig_preset("default", (20_000,), 2_400, 8, trace="diurnal"),
        "paper": _fig_preset("paper", (100_000,), 5_000, 48, trace="diurnal"),
    },
    # Steady state -> sudden outage to n/outage_divisor -> full recovery.
    "failover": {
        "quick": _fig_preset("quick", (2_000,), 600, 3, outage_divisor=10),
        "default": _fig_preset("default", (20_000,), 2_400, 8, outage_divisor=10),
        "paper": _fig_preset("paper", (100_000,), 5_000, 48, outage_divisor=10),
    },
}


def list_presets() -> dict[str, list[str]]:
    """Mapping of experiment id to its available effort levels."""
    return {experiment: sorted(levels) for experiment, levels in PRESETS.items()}
