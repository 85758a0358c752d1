"""Seeded property-based scenario fuzzer.

Hand-written scenarios only cover the adversaries we thought of.  The
fuzzer generates random *valid* workloads — population size, horizon,
trial count, a schedule drawn from every family the catalog knows
(synthetic builders, bundled traces, multi-phase timelines), optional
protocol-parameter overrides — and asserts the cross-engine conformance
property on each: the batched, ensemble and counts engines simulate the
same stochastic process, so the distributions of per-trial tracking
statistics must agree (two-sample Kolmogorov-Smirnov on distinct base
seeds, the same machinery as ``tests/test_statistical_conformance.py``,
via :mod:`repro.analysis.stats`).  Cases small enough for the exact
sequential engine (no population of the case above
``EXACT_REFERENCE_MAX_N``) run it as well, so the approximate engines are
also checked against an exact reference, not only against each other.  A
comparison that fails is run again on a fresh, larger sample and counts
only if it fails there too.

Everything is deterministic: case ``i`` of ``generate_cases(seed, count)``
is drawn from ``np.random.default_rng([seed, i])``, so the same seed
reproduces the same cases and cache keys, bit for bit.  A fuzz run is
:func:`check_conformance` on each generated case, as
``repro-experiments fuzz --seed S --count N`` does.  Cases are plain data
run straight on the engines; they are not registered as scenarios.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Mapping, Sequence

import numpy as np

from repro.analysis.stats import ks_critical, ks_statistic
from repro.core.params import ProtocolParameters, empirical_parameters
from repro.engine.runner import run_engine_trials
from repro.scenarios import schedules
from repro.scenarios.phases import Phase, chain_phases, phase_boundaries
from repro.scenarios.runner import apply_params_overrides
from repro.scenarios.spec import canonical_json
from repro.scenarios.traces import bundled_trace

__all__ = [
    "CONFIRMATION_FACTOR",
    "EXACT_REFERENCE_MAX_N",
    "FuzzCase",
    "ConformancePair",
    "ConformanceReport",
    "generate_cases",
    "check_conformance",
    "default_engines",
]

#: Schedule families the generator draws from, in a fixed order (the draw
#: is an index into this tuple, so reordering changes every generated case).
FAMILIES = (
    "none",
    "oscillation",
    "growth_crash",
    "random_churn",
    "repeated_decimation",
    "trace",
    "multi_phase",
)

#: Engines checked against each other on every case.
DEFAULT_ENGINES = ("batched", "ensemble", "counts")

#: Largest population a case may reach, at its start or at any resize, and
#: still run the exact ``sequential`` engine as a reference.  That engine is
#: O(n) Python per parallel step: 16 trials of 64 agents over the longest
#: generated horizon (400) take about 6 s on two cores, so the bound keeps a
#: case's reference run to a few seconds.
EXACT_REFERENCE_MAX_N = 64

#: Trials per engine of a confirmation sample, as a multiple of the first
#: sample's: four times the trials halve the KS critical value.
CONFIRMATION_FACTOR = 4

#: Distinct base seeds per engine: shared seeds would make exact-trajectory
#: engines vacuously identical, distinct seeds make an honest two-sample test.
_ENGINE_SEEDS = {"batched": 7103, "ensemble": 7207, "counts": 7311, "sequential": 7401}

#: Added to an engine's base seed for its confirmation sample, so that the
#: fresh sample shares no seed with any case's first one.
_CONFIRMATION_SEED_SHIFT = 1_000_000


@dataclass(frozen=True)
class FuzzCase:
    """One generated workload: plain data, fully canonical-JSON-encodable."""

    name: str
    seed: int
    index: int
    n: int
    horizon: int
    trials: int
    family: str
    schedule: tuple[tuple[int, int], ...]
    phases: tuple[Mapping[str, Any], ...] = ()
    params_overrides: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def encoding(self) -> dict[str, Any]:
        """The case as canonical-JSON-encodable data (its full identity)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "index": self.index,
            "n": self.n,
            "horizon": self.horizon,
            "trials": self.trials,
            "family": self.family,
            "schedule": [list(event) for event in self.schedule],
            "phases": [dict(boundary) for boundary in self.phases],
            "params_overrides": dict(self.params_overrides),
        }

    def cache_key(self) -> str:
        """SHA-256 over :meth:`encoding` — the determinism contract."""
        digest = hashlib.sha256(canonical_json(self.encoding()).encode("ascii"))
        return digest.hexdigest()

    def resolved_params(self) -> ProtocolParameters:
        """The paper's empirical constants with this case's overrides applied."""
        return apply_params_overrides(empirical_parameters(), self.params_overrides)


# ------------------------------------------------------------- generation


def _draw_schedule(
    rng: np.random.Generator, family: str, n: int, horizon: int
) -> tuple[tuple[tuple[int, int], ...], tuple[Mapping[str, Any], ...]]:
    """Draw a valid schedule (and phase boundaries, if any) for a family."""
    if family == "none":
        return (), ()
    if family == "oscillation":
        return schedules.oscillation(
            n,
            low=max(2, n // int(rng.integers(4, 17))),
            period=max(1, horizon // int(rng.integers(3, 9))),
            horizon=horizon,
        ), ()
    if family == "growth_crash":
        return schedules.growth_crash(
            n,
            growth_factor=float(rng.choice((1.5, 2.0, 3.0))),
            growth_steps=int(rng.integers(2, 5)),
            period=max(1, horizon // int(rng.integers(6, 10))),
            crash_target=max(2, n // int(rng.integers(8, 21))),
            horizon=horizon,
        ), ()
    if family == "random_churn":
        return schedules.random_churn(
            n,
            low=max(2, n // int(rng.integers(4, 13))),
            high=n,
            period=max(1, horizon // int(rng.integers(6, 13))),
            horizon=horizon,
            seed=int(rng.integers(0, 2**31)),
        ), ()
    if family == "repeated_decimation":
        return schedules.repeated_decimation(
            n,
            factor=float(rng.choice((1.5, 2.0, 3.0))),
            period=max(1, horizon // int(rng.integers(4, 9))),
            horizon=horizon,
            floor=max(2, min(16, n // 2)),
        ), ()
    if family == "trace":
        name = str(rng.choice(("flash_crowd", "diurnal", "failover")))
        return bundled_trace(name).resample(horizon=horizon, n=n), ()
    if family == "multi_phase":
        first = max(1, horizon // int(rng.integers(3, 5)))
        second = max(1, horizon // int(rng.integers(3, 5)))
        third = max(1, horizon - first - second)
        phases = (
            Phase("warmup", first),
            Phase("crash", second, start_size=max(2, n // int(rng.integers(5, 13)))),
            Phase("recovery", third, start_size=n),
        )
        return chain_phases(phases), phase_boundaries(phases)
    raise ValueError(f"unknown schedule family {family!r}")


def generate_cases(seed: int, count: int) -> tuple[FuzzCase, ...]:
    """Generate ``count`` deterministic workloads for ``seed``.

    Case ``i`` draws from ``default_rng([seed, i])``, so cases are
    independent of ``count`` — asking for 5 or 50 cases yields the same
    first five.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    cases = []
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        n = int(round(2.0 ** float(rng.uniform(4.0, 10.0))))
        horizon = int(rng.integers(120, 401))
        trials = int(rng.integers(2, 4))
        family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
        schedule, phases = _draw_schedule(rng, family, n, horizon)
        params_overrides: dict[str, Any] = {}
        if rng.random() < 0.25:
            params_overrides["k"] = int(rng.choice((8, 32)))
        cases.append(
            FuzzCase(
                name=f"fuzz_{seed}_{index}",
                seed=seed,
                index=index,
                n=n,
                horizon=horizon,
                trials=trials,
                family=family,
                schedule=schedule,
                phases=phases,
                params_overrides=params_overrides,
            )
        )
    return tuple(cases)


# ------------------------------------------------------------ conformance


@dataclass(frozen=True)
class ConformancePair:
    """One engine-pair KS comparison on one per-trial statistic.

    A comparison that fails carries the same comparison on a fresh, larger
    sample as its ``confirmation``, and fails only if that fails too.
    """

    engine_a: str
    engine_b: str
    statistic: str
    ks: float
    critical: float
    confirmation: ConformancePair | None = None

    @property
    def ok(self) -> bool:
        if self.ks <= self.critical:
            return True
        return self.confirmation is not None and self.confirmation.ok

    def describe(self) -> str:
        """One line: the engines, the statistic and each sample's verdict."""
        line = (
            f"{self.engine_a} vs {self.engine_b} on {self.statistic}: "
            f"KS={self.ks:.4f} {'<=' if self.ks <= self.critical else '>'} "
            f"critical={self.critical:.4f}"
        )
        if self.confirmation is not None:
            again = self.confirmation
            line += (
                f"; on a fresh sample KS={again.ks:.4f} "
                f"{'<=' if again.ks <= again.critical else '>'} "
                f"critical={again.critical:.4f}"
            )
        return line


@dataclass(frozen=True)
class ConformanceReport:
    """All pairwise comparisons for one fuzz case.

    ``engines`` ran ``trials`` repetitions each; ``reruns`` are the engines
    that ran a confirmation sample because one of their pairs failed.
    """

    case: FuzzCase
    engines: tuple[str, ...]
    pairs: tuple[ConformancePair, ...]
    reruns: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(pair.ok for pair in self.pairs)

    def failures(self) -> tuple[ConformancePair, ...]:
        return tuple(pair for pair in self.pairs if not pair.ok)

    def confirmed(self) -> tuple[ConformancePair, ...]:
        """The pairs whose first sample failed and whose confirmation passed."""
        return tuple(
            pair for pair in self.pairs if pair.ok and pair.confirmation is not None
        )


def _trial_statistics(
    series_list: Sequence[Mapping[str, Sequence[float]]],
    params: ProtocolParameters,
    n: int,
) -> dict[str, np.ndarray]:
    """Per-trial samples: final and mean second-half tracking error.

    The moving target at snapshot ``t`` is ``log2(size_t) +
    log2(grv_samples)`` — the level the max of ``k * size`` GRVs
    concentrates at (the same statistic :func:`repro.scenarios.metrics.
    tracking_stats` aggregates).
    """
    offset = math.log2(max(1, params.grv_samples))
    final, tracking = [], []
    for series in series_list:
        medians = series["median"]
        sizes = series.get("population_size") or [n] * len(medians)
        half = len(medians) // 2
        deviations = [
            abs(median - (math.log2(size) + offset))
            for median, size in zip(medians[half:], sizes[half:])
            if size >= 2
        ]
        tracking.append(
            sum(deviations) / len(deviations) if deviations else float("nan")
        )
        final.append(
            abs(medians[-1] - (math.log2(sizes[-1]) + offset))
            if sizes[-1] >= 2
            else float("nan")
        )
    return {"final_error": np.array(final), "tracking_error": np.array(tracking)}


def _compare(
    samples: Mapping[str, Mapping[str, np.ndarray]],
    engines: Sequence[str],
    trials: int,
    alpha: float,
) -> tuple[ConformancePair, ...]:
    """Every pair of ``engines`` on both statistics, at significance ``alpha``."""
    critical = ks_critical(trials, trials, alpha)
    pairs = []
    for i, engine_a in enumerate(engines):
        for engine_b in engines[i + 1 :]:
            for statistic in ("final_error", "tracking_error"):
                ks = ks_statistic(
                    samples[engine_a][statistic], samples[engine_b][statistic]
                )
                pairs.append(
                    ConformancePair(
                        engine_a=engine_a,
                        engine_b=engine_b,
                        statistic=statistic,
                        ks=ks,
                        critical=critical,
                    )
                )
    return tuple(pairs)


def default_engines(case: FuzzCase) -> tuple[str, ...]:
    """The engines ``check_conformance(case, engines=None)`` runs.

    :data:`DEFAULT_ENGINES`, plus the exact ``sequential`` reference when
    the case never holds more than :data:`EXACT_REFERENCE_MAX_N` agents:
    neither at its start nor at any target of its schedule, since the
    reference's cost follows the largest population it simulates.
    """
    largest = max((case.n, *(target for _, target in case.schedule)))
    if largest <= EXACT_REFERENCE_MAX_N:
        return DEFAULT_ENGINES + ("sequential",)
    return DEFAULT_ENGINES


def check_conformance(
    case: FuzzCase,
    *,
    engines: Sequence[str] | None = None,
    trials: int = 24,
    alpha: float = 0.001,
) -> ConformanceReport:
    """Cross-engine KS conformance for one generated workload.

    Each engine runs ``trials`` independent repetitions of the case's
    workload from its own base seed, and every engine pair is compared on
    the per-trial final/tracking error distributions at significance
    ``alpha``.  ``engines=None`` runs :func:`default_engines`:
    :data:`DEFAULT_ENGINES`, plus the exact ``sequential`` engine when the
    case never holds more than :data:`EXACT_REFERENCE_MAX_N` agents; an
    explicit list runs exactly as given.

    Each comparison is judged at ``alpha`` on its own, so over the hundreds
    of comparisons of a fuzz run a sample that fails by chance is to be
    expected now and then.  A pair that fails is therefore compared again
    on a fresh sample (new base seeds, :data:`CONFIRMATION_FACTOR` times
    the trials) of both its engines, and counts as a failure only if it
    fails there too; an engine that really diverges fails both.  Fully
    seeded — the verdict is deterministic.
    """
    from repro.experiments.figures import _trace_engine_factory

    engines = default_engines(case) if engines is None else tuple(engines)
    params = case.resolved_params()
    factory = partial(
        _trace_engine_factory,
        n=case.n,
        params=params,
        resize_schedule=tuple(case.schedule),
        initial_estimate=None,
    )

    def sample(engine: str, count: int, shift: int) -> dict[str, np.ndarray]:
        base = _ENGINE_SEEDS.get(engine, 7000) + 131 * case.index + shift
        series_list = run_engine_trials(
            factory,
            engine=engine,
            trials=count,
            seed=base,
            parallel_time=case.horizon,
        )
        return _trial_statistics(series_list, params, case.n)

    pairs = _compare(
        {engine: sample(engine, trials, 0) for engine in engines},
        engines,
        trials,
        alpha,
    )
    reruns = tuple(
        engine
        for engine in engines
        if any(not pair.ok and engine in (pair.engine_a, pair.engine_b) for pair in pairs)
    )
    if reruns:
        fresh_trials = CONFIRMATION_FACTOR * trials
        fresh = {
            engine: sample(engine, fresh_trials, _CONFIRMATION_SEED_SHIFT)
            for engine in reruns
        }
        confirmations = {
            (pair.engine_a, pair.engine_b, pair.statistic): pair
            for pair in _compare(fresh, reruns, fresh_trials, alpha)
        }
        pairs = tuple(
            pair
            if pair.ok
            else dataclasses.replace(
                pair,
                confirmation=confirmations[pair.engine_a, pair.engine_b, pair.statistic],
            )
            for pair in pairs
        )
    return ConformanceReport(case=case, engines=engines, pairs=pairs, reruns=reruns)
