"""Correctness checks on scenario results; a failed check fails the operation.

The paper's claim is constant-factor validity: in steady state the median
estimate stays within a constant factor of ``log2 n``.  For every point the
check takes, over the second half of the run, the median of
``median estimate / log2(current population size)`` (``fig3`` reports the
same ratio as ``relative_median``) and requires it inside the band fitted
at the seed commit by ``fit_bands.py`` and stored in ``bands.json``.
Adversarial points must also end at the population their schedule sets.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

BANDS_FILE = Path(__file__).with_name("bands.json")


def load_bands() -> dict[str, Any]:
    return json.loads(BANDS_FILE.read_text())["bands"]


def steady_ratio(series: Mapping[str, list[float]]) -> float:
    """Median of estimate / log2(size) over the second half of a series."""
    half = len(series["median"]) // 2
    ratios = sorted(
        median / math.log2(size)
        for median, size in zip(series["median"][half:], series["population_size"][half:])
        if size >= 2
    )
    return ratios[len(ratios) // 2] if ratios else float("nan")


def point_ratios(result: Any) -> dict[str, float]:
    """Steady-state ratio per point label (``n_<n>``)."""
    if result.series:
        return {label: steady_ratio(series) for label, series in result.series.items()}
    return {f"n_{row['n']}": row["relative_median"] for row in result.rows}


def check_ratios(result: Any, bands: Mapping[str, list[float]]) -> list[str]:
    problems = []
    ratios = point_ratios(result)
    for label, (low, high) in bands.items():
        ratio = ratios.get(label)
        if ratio is None:
            problems.append(f"{result.experiment} {label}: no steady-state ratio")
        elif not low <= ratio <= high:
            problems.append(
                f"{result.experiment} {label}: estimate/log2 n = {ratio:.3f} outside [{low}, {high}]"
            )
    return problems


def _check_sizes(experiment: str, series: Mapping[str, Mapping[str, list[float]]], expected: Mapping[str, int]) -> list[str]:
    problems = []
    for label, size in expected.items():
        if label not in series:
            continue  # scenarios without a kept series (fig3) have no final size
        final = series[label]["population_size"][-1]
        if final != size:
            problems.append(f"{experiment} {label}: final population {final}, schedule ends at {size}")
    return problems


def check_final_sizes(result: Any, expected: Mapping[str, int]) -> list[str]:
    return _check_sizes(result.experiment, result.series, expected)


def check_payload_sizes(payload: Mapping[str, Any], expected: Mapping[str, int]) -> list[str]:
    result = payload["results"][0]
    return _check_sizes(result["experiment"], result["series"], expected)
