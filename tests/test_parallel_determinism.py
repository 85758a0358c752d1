"""Determinism regression: golden per-trial trajectories under sharding.

``tests/data/golden_parallel.json`` pins the *per-trial* snapshot series of
one small counting workload (n=32, 18 trials — two row-shards under the
default shard size — 10 parallel time units, fixed seed) for every
parallelizable engine, as produced by the sharded execution layer.  The
tests assert that ``workers`` ∈ {1, 2, 4} all reproduce the pinned
trajectories **bit-identically**: the shard layout is a pure function of
the workload and every random stream is derived from its seed-tree
address, so the worker count must be invisible in the results.

For the looped engines the golden values also pin the serial
(``workers=None``) path, which shares the per-trial streams.

Regenerate after an intentional change to stream derivation or shard
layout with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_parallel_determinism.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.registry import make_engine
from repro.engine.runner import run_engine_trials

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_parallel.json"

#: The pinned workload: small enough for the sequential engine, large
#: enough in trials (18 > DEFAULT_SHARD_SIZE) to span two row-shards, so
#: the shard *boundary* — not just the worker count — is exercised.
N = 32
TRIALS = 18
PARALLEL_TIME = 10
SEED = 20240726

ENGINES = ("sequential", "batched", "ensemble")
WORKER_COUNTS = (1, 2, 4)


def _factory(engine_name, rng, ensemble_trials):
    """Module-level engine factory so worker processes can unpickle it."""
    return make_engine(
        engine_name,
        DynamicSizeCounting(),
        N,
        rng=rng,
        trials=ensemble_trials if engine_name == "ensemble" else None,
    )


def _run(engine: str, workers: int | None):
    return run_engine_trials(
        _factory,
        engine=engine,
        trials=TRIALS,
        seed=SEED,
        parallel_time=PARALLEL_TIME,
        workers=workers,
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        data = {engine: _run(engine, 1) for engine in ENGINES}
        GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden file {GOLDEN_PATH} missing; regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("engine", ENGINES)
def test_per_trial_trajectories_match_golden(golden, engine, workers):
    """Every worker count reproduces the pinned per-trial series exactly."""
    series = _run(engine, workers)
    assert len(series) == TRIALS
    assert series == golden[engine]


@pytest.mark.parametrize("engine", ["sequential", "batched"])
def test_serial_path_matches_golden_for_looped_engines(golden, engine):
    """workers=None (the historical serial loop) shares the per-trial
    streams with the sharded path, so it pins to the same golden."""
    assert _run(engine, None) == golden[engine]


def test_golden_covers_two_shards():
    """Guard the premise: the pinned trial count spans multiple shards."""
    from repro.engine.parallel import plan_shards

    assert len(plan_shards(TRIALS)) >= 2
