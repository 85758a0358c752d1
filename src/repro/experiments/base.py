"""Common experiment infrastructure.

Every scenario runs at an :class:`ExperimentPreset` and
:func:`repro.scenarios.runner.run_scenario` returns an
:class:`ExperimentResult`.  The result carries the regenerated series/rows
(the same quantities the paper plots), a human-readable table, and enough
metadata to reproduce the run.

Results can be persisted with :meth:`ExperimentResult.save`, which writes a
CSV per series plus a JSON manifest under the chosen output directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.tables import (
    format_table,
    read_csv,
    read_json,
    rows_to_series,
    write_csv,
    write_json,
)

__all__ = ["ExperimentPreset", "ExperimentResult"]


@dataclass(frozen=True)
class ExperimentPreset:
    """Size/effort knobs shared by all experiments.

    Attributes
    ----------
    name:
        Preset label (``"quick"``, ``"default"`` or ``"paper"``).
    population_sizes:
        The ``n`` values to sweep (where the experiment sweeps ``n``).
    parallel_time:
        Simulation horizon in parallel time units.
    trials:
        Independent repetitions per data point (the paper uses 96).
    seed:
        Root seed for reproducibility.
    extra:
        Experiment-specific knobs (e.g. the decimation target of Fig. 4).
    """

    name: str
    population_sizes: tuple[int, ...]
    parallel_time: int
    trials: int
    seed: int = 20240508
    extra: Mapping[str, Any] = field(default_factory=dict)

    def with_overrides(self, **overrides: Any) -> "ExperimentPreset":
        """Return a copy with selected fields replaced."""
        data = {
            "name": self.name,
            "population_sizes": self.population_sizes,
            "parallel_time": self.parallel_time,
            "trials": self.trials,
            "seed": self.seed,
            "extra": dict(self.extra),
        }
        extra_override = overrides.pop("extra", None)
        data.update(overrides)
        if extra_override is not None:
            merged = dict(self.extra)
            merged.update(extra_override)
            data["extra"] = merged
        return ExperimentPreset(**data)


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment:
        Experiment identifier (``"fig2"``, ``"fig3"``, ...).
    description:
        One-line description of what the experiment regenerates.
    rows:
        Row-oriented data (one dictionary per table row / plotted point).
    series:
        Optional column-oriented time series keyed by series name.
    metadata:
        Preset, protocol parameters and engine information.
    """

    experiment: str
    description: str
    rows: list[dict[str, Any]]
    series: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    def table(self, columns: Sequence[str] | None = None) -> str:
        """Human-readable ASCII table of :attr:`rows`."""
        return format_table(self.rows, columns, title=f"{self.experiment}: {self.description}")

    def save(self, output_dir: str | Path) -> Path:
        """Persist rows, series and metadata under ``output_dir``; returns the dir."""
        base = Path(output_dir) / self.experiment
        base.mkdir(parents=True, exist_ok=True)
        if self.rows:
            write_csv(base / "rows.csv", self.rows)
        for name, series in self.series.items():
            columns = [{key: series[key][i] for key in series} for i in range(min(len(v) for v in series.values()))]
            write_csv(base / f"series_{name}.csv", columns)
        write_json(
            base / "manifest.json",
            {
                "experiment": self.experiment,
                "description": self.description,
                "metadata": self.metadata,
                "row_count": len(self.rows),
                "series": sorted(self.series),
            },
        )
        return base

    @classmethod
    def load(cls, result_dir: str | Path) -> "ExperimentResult":
        """Load a result previously persisted with :meth:`save`.

        ``result_dir`` is the per-experiment directory :meth:`save` returned
        (the one containing ``manifest.json``).  Numeric/boolean cell types
        are restored from the CSVs, so ``load(save(...))`` round-trips: the
        loaded result saves to an identical manifest.
        """
        base = Path(result_dir)
        manifest = read_json(base / "manifest.json")
        rows_path = base / "rows.csv"
        rows = read_csv(rows_path) if rows_path.exists() else []
        series: dict[str, dict[str, list[float]]] = {}
        for name in manifest.get("series", []):
            series[name] = rows_to_series(read_csv(base / f"series_{name}.csv"))
        return cls(
            experiment=manifest["experiment"],
            description=manifest["description"],
            rows=rows,
            series=series,
            metadata=manifest.get("metadata", {}),
        )
