"""Fit the oracle's steady-state bands and write ``bands.json``.

Runs every scenario of ``per_agent`` and ``counts_million`` for a range of
workload seeds and records, per point, the lowest and highest
``estimate / log2 n`` ratio seen, widened by ``MARGIN`` on each side.  Run
it from the repository root at the commit the bands should describe::

    python3 perfbench/fit_bands.py
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
from repro.scenarios import runner  # noqa: E402

#: Relative widening of the observed range: the constant-factor slack.
MARGIN = 0.25
#: Workload seeds the bands are fitted over.
SEEDS = range(1, 13)


def main() -> None:
    if not oracle.BANDS_FILE.exists():
        # The workloads read their bands at construction; start from none.
        oracle.BANDS_FILE.write_text(json.dumps({"bands": {"per_agent": {}, "counts_million": {}}}))
    import workloads

    bands: dict[str, dict[str, dict[str, list[float]]]] = {}
    observed: dict[str, dict[str, dict[str, list[float]]]] = {}
    for cls in (workloads.PerAgent, workloads.CountsMillion):
        seen: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        for seed in SEEDS:
            workload = cls(seed, HERE)
            for spec, preset, _, _ in workload.inputs:
                result = runner.run_scenario(spec, preset=preset)
                for label, ratio in oracle.point_ratios(result).items():
                    seen[spec.name][label].append(ratio)
            print(f"{cls.name} seed {seed} done", file=sys.stderr)
        observed[cls.name] = {name: dict(points) for name, points in seen.items()}
        bands[cls.name] = {
            name: {
                label: [round(min(r) * (1 - MARGIN), 3), round(max(r) * (1 + MARGIN), 3)]
                for label, r in points.items()
            }
            for name, points in seen.items()
        }
    oracle.BANDS_FILE.write_text(
        json.dumps(
            {
                "seeds": list(SEEDS),
                "margin": MARGIN,
                "bands": bands,
                "observed": observed,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


if __name__ == "__main__":
    main()
