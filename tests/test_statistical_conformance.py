"""Statistical-conformance battery across engines and execution modes.

The engines deliberately differ in *mechanism* — exact sequential
interleaving, synchronous-rounds batching, stacked ensembles, sharded
stacks, count vectors — but they all simulate the same stochastic
process, so the *distributions* of the quantities the paper reports must
agree.  This module checks two of them on a small counting workload:

* **convergence time** — first parallel time at which the median estimate
  is within tolerance of ``log2 n`` (horizon sentinel if never), and
* **estimate error** — ``|median estimate - log2 n|`` at the horizon,

across sequential vs batched vs ensemble vs counts engines, with the
exact sequential engine as the reference for the other three, and
across ``workers=1`` vs ``workers>1`` and the sharded vs single-stack
ensemble paths.  The same comparison runs again at both ends of the
small-population range (n = 10 and n = 128), which has no engine tier of
its own and runs on ``batched`` or ``ensemble`` unless pinned.  A second
battery runs the tests' max-epidemic kernels (``tests/max_epidemic.py``),
so the engines' scheduling is checked on a protocol other than the one
they ship: the counts engine against the batched engine, and the exact
sequential engine (the scalar ``interact`` rule) against each of the
others.  The counts engine is also checked on a population-drop workload
and for its count-vector invariants (non-negative, sums to the population
size).

Every run is fully seeded, so the sample sets — and therefore the test
verdicts — are deterministic: there is no flakiness to tolerate, and the
generous significance level (``ALPHA = 1e-3``) only documents how big a
disagreement would have to be before we call the engines statistically
inconsistent.  The engines use *distinct* base seeds on purpose: with a
shared seed two runs of one mechanism could be trajectory-identical and
the comparison would be vacuous; distinct seeds make this an honest
two-sample test.

The KS and chi-square machinery is implemented on plain NumPy (no SciPy
dependency) in :mod:`repro.analysis.stats` — it is shared with the
scenario fuzzer (:mod:`repro.scenarios.fuzz`), which asserts the same
cross-engine property on generated workloads at runtime.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from repro.analysis.stats import (
    chi_square_critical,
    chi_square_homogeneity,
    ks_critical,
    ks_statistic,
)
from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.population import Population
from repro.engine.registry import make_engine
from repro.engine.rng import RandomSource
from repro.engine.runner import run_engine_trials
from repro.protocols.epidemic import MaxEpidemic


class TestStatisticHelpers:
    def test_ks_identical_samples_is_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ks_statistic(x, x) == 0.0

    def test_ks_disjoint_samples_is_one(self):
        assert ks_statistic(np.zeros(10), np.ones(10)) == 1.0

    def test_ks_matches_known_value(self):
        # CDFs differ by exactly 0.5 at x in [2, 3).
        assert ks_statistic(np.array([1.0, 2.0]), np.array([1.0, 3.0])) == 0.5

    def test_ks_critical_decreases_with_sample_size(self):
        assert ks_critical(100, 100, 0.001) < ks_critical(10, 10, 0.001)

    def test_chi_square_critical_close_to_table(self):
        # Table values: chi2(2, 0.05)=5.991, chi2(4, 0.01)=13.277.
        assert chi_square_critical(2, 0.05) == pytest.approx(5.991, abs=0.15)
        assert chi_square_critical(4, 0.01) == pytest.approx(13.277, abs=0.15)

    def test_chi_square_identical_samples_is_zero(self):
        x = np.arange(30, dtype=float)
        statistic, _ = chi_square_homogeneity(x, x)
        assert statistic == 0.0


# ----------------------------------------------------------------- workload

N = 64
PARALLEL_TIME = 40
TRIALS = 30
TOLERANCE = 2.0
ALPHA = 0.001
#: Sentinel convergence time for trials that never reach the tolerance.
NEVER = float(PARALLEL_TIME + 10)

#: (sample label) -> (engine, base seed, workers).  Distinct seeds keep the
#: comparisons honest (see module docstring); the two ensemble entries
#: compare the sharded row-shard path against the single-stack pass.
SAMPLES = {
    "sequential": ("sequential", 101, None),
    "batched": ("batched", 303, None),
    "ensemble": ("ensemble", 404, 2),
    "ensemble-single-stack": ("ensemble", 505, None),
    "counts": ("counts", 606, None),
}


def _factory(engine_name, rng, ensemble_trials):
    """Module-level engine factory so worker processes can unpickle it."""
    return make_engine(
        engine_name,
        DynamicSizeCounting(),
        N,
        rng=rng,
        trials=ensemble_trials if engine_name == "ensemble" else None,
    )


def _convergence_times(series_list, n: int = N) -> np.ndarray:
    log_n = math.log2(n)
    times = []
    for series in series_list:
        time = next(
            (
                t
                for t, median in zip(series["parallel_time"], series["median"])
                if abs(median - log_n) <= TOLERANCE
            ),
            NEVER,
        )
        times.append(float(time))
    return np.array(times)


def _estimate_errors(series_list, n: int = N) -> np.ndarray:
    log_n = math.log2(n)
    return np.array([abs(series["median"][-1] - log_n) for series in series_list])


@pytest.fixture(scope="module")
def samples() -> dict[str, dict[str, np.ndarray]]:
    """Per-engine convergence-time and estimate-error samples (seeded)."""
    out = {}
    for label, (engine, seed, workers) in SAMPLES.items():
        series = run_engine_trials(
            _factory,
            engine=engine,
            trials=TRIALS,
            seed=seed,
            parallel_time=PARALLEL_TIME,
            workers=workers,
        )
        out[label] = {
            "convergence": _convergence_times(series),
            "error": _estimate_errors(series),
        }
    return out


_PAIRS = [
    ("sequential", "batched"),
    ("sequential", "ensemble"),
    ("batched", "ensemble"),
    ("ensemble", "ensemble-single-stack"),
    ("sequential", "counts"),
    ("batched", "counts"),
    ("ensemble", "counts"),
]


class TestCrossEngineConformance:
    @pytest.mark.parametrize("left,right", _PAIRS)
    def test_convergence_times_agree_ks(self, samples, left, right):
        d = ks_statistic(samples[left]["convergence"], samples[right]["convergence"])
        assert d <= ks_critical(TRIALS, TRIALS, ALPHA), (
            f"convergence-time distributions diverge: {left} vs {right}, D={d:.3f}"
        )

    @pytest.mark.parametrize("left,right", _PAIRS)
    def test_estimate_errors_agree_ks(self, samples, left, right):
        d = ks_statistic(samples[left]["error"], samples[right]["error"])
        assert d <= ks_critical(TRIALS, TRIALS, ALPHA), (
            f"estimate-error distributions diverge: {left} vs {right}, D={d:.3f}"
        )

    @pytest.mark.parametrize("left,right", _PAIRS)
    def test_estimate_errors_agree_chi_square(self, samples, left, right):
        statistic, df = chi_square_homogeneity(
            samples[left]["error"], samples[right]["error"]
        )
        assert statistic <= chi_square_critical(df, ALPHA), (
            f"binned estimate errors diverge: {left} vs {right}, "
            f"chi2={statistic:.2f} (df={df})"
        )

    def test_all_engines_actually_converge(self, samples):
        """Sanity anchor: the majority of trials converge on every engine,
        so the KS comparisons are not vacuously comparing sentinels."""
        for label, data in samples.items():
            converged = (data["convergence"] < NEVER).mean()
            assert converged >= 0.5, f"{label}: only {converged:.0%} converged"


class TestWorkerCountConformance:
    """workers=1 vs workers>1 is stronger than distributional agreement:
    the sharded layer is bit-deterministic, so the samples are *equal*."""

    @pytest.mark.parametrize(
        "engine", ["sequential", "batched", "ensemble", "counts"]
    )
    def test_worker_counts_yield_identical_samples(self, engine):
        series_by_workers = {
            workers: run_engine_trials(
                _factory,
                engine=engine,
                trials=12,
                seed=77,
                parallel_time=15,
                workers=workers,
            )
            for workers in (1, 3)
        }
        a = _convergence_times(series_by_workers[1])
        b = _convergence_times(series_by_workers[3])
        assert a.tolist() == b.tolist()
        assert ks_statistic(a, b) == 0.0
        ea = _estimate_errors(series_by_workers[1])
        eb = _estimate_errors(series_by_workers[3])
        assert ea.tolist() == eb.tolist()


# ------------------------------------------------- small populations

#: Both ends of the auto-selection range below the counts threshold that has
#: no tier of its own: an auto point there runs on ``batched`` (one trial)
#: or ``ensemble`` (several), so both must match the exact engine there too.
SMALL_SIZES = (10, 128)

#: (engine) -> base seed; distinct from every seed of the main battery.
SMALL_SEEDS = {"sequential": 111, "batched": 313, "ensemble": 414}


def _small_factory(engine_name, rng, ensemble_trials, *, n):
    return make_engine(
        engine_name,
        DynamicSizeCounting(),
        n,
        rng=rng,
        trials=ensemble_trials if engine_name == "ensemble" else None,
    )


@pytest.fixture(scope="module", params=SMALL_SIZES, ids=lambda n: f"n{n}")
def small_samples(request) -> tuple[int, dict[str, dict[str, np.ndarray]]]:
    """Seeded samples of the main battery's statistics at one small size."""
    n = request.param
    out = {}
    for engine, seed in SMALL_SEEDS.items():
        series = run_engine_trials(
            partial(_small_factory, n=n),
            engine=engine,
            trials=TRIALS,
            seed=seed,
            parallel_time=PARALLEL_TIME,
        )
        out[engine] = {
            "convergence": _convergence_times(series, n),
            "error": _estimate_errors(series, n),
        }
    return n, out


class TestSmallPopulationConformance:
    @pytest.mark.parametrize("engine", ("batched", "ensemble"))
    def test_convergence_times_agree_ks(self, small_samples, engine):
        n, samples = small_samples
        d = ks_statistic(
            samples["sequential"]["convergence"], samples[engine]["convergence"]
        )
        assert d <= ks_critical(TRIALS, TRIALS, ALPHA), (
            f"n={n}: convergence-time distributions diverge: sequential vs "
            f"{engine}, D={d:.3f}"
        )

    @pytest.mark.parametrize("engine", ("batched", "ensemble"))
    def test_estimate_errors_agree_ks(self, small_samples, engine):
        n, samples = small_samples
        d = ks_statistic(samples["sequential"]["error"], samples[engine]["error"])
        assert d <= ks_critical(TRIALS, TRIALS, ALPHA), (
            f"n={n}: estimate-error distributions diverge: sequential vs "
            f"{engine}, D={d:.3f}"
        )


# ------------------------------------- the engine kernels on a second protocol

#: Workload of the max-epidemic battery: small enough to run the batched
#: engine 24 times, large enough that the compared statistic has real
#: spread.
COUNTS_N = 96
COUNTS_TRIALS = 24
COUNTS_HORIZON = 30
COUNTS_NEVER = float(COUNTS_HORIZON + 10)

#: The test-written protocol the battery runs (``tests/max_epidemic.py``):
#: one seeded peak that the one-way epidemic spreads.
COUNTS_PROTOCOLS = ("max-epidemic",)


def _battery_arrays(n):
    value = np.zeros(n, dtype=np.float64)
    value[0] = 5.0  # one seeded peak; the epidemic spreads it
    return {"value": value}


def _spread_time(series):
    """Time to full spread of the seeded peak: one scalar per trial."""
    pairs = zip(series["parallel_time"], series["minimum"])
    return float(next((t for t, lo in pairs if lo >= 5.0), COUNTS_NEVER))


def _battery_factory(engine_name, rng, ensemble_trials):
    """Module-level factory for the max-epidemic battery."""
    if engine_name == "sequential":
        population = Population([5] + [0] * (COUNTS_N - 1))
        return make_engine(engine_name, MaxEpidemic(), population, rng=rng)
    return make_engine(
        engine_name,
        MaxEpidemic(),
        COUNTS_N,
        rng=rng,
        initial_arrays=_battery_arrays(COUNTS_N),
        trials=ensemble_trials if engine_name == "ensemble" else None,
    )


def _battery_samples(engine, seed):
    series = run_engine_trials(
        _battery_factory,
        engine=engine,
        trials=COUNTS_TRIALS,
        seed=seed,
        parallel_time=COUNTS_HORIZON,
    )
    return np.array([_spread_time(s) for s in series])


@pytest.mark.usefixtures("max_epidemic_kernels")
class TestCountsKernelProtocolConformance:
    """Counts engine vs batched engine on the tests' max-epidemic kernels.

    The same honest-two-sample setup as the main battery: distinct base
    seeds per engine, fully deterministic samples, KS at ``ALPHA``.
    """

    @pytest.mark.parametrize("key", COUNTS_PROTOCOLS)
    def test_counts_matches_batched(self, key):
        counts = _battery_samples("counts", 1600)
        batched = _battery_samples("batched", 1700)
        d = ks_statistic(counts, batched)
        assert d <= ks_critical(COUNTS_TRIALS, COUNTS_TRIALS, ALPHA), (
            f"{key}: counts vs batched diverge, D={d:.3f}"
        )

    @pytest.mark.parametrize("key", COUNTS_PROTOCOLS)
    def test_battery_statistic_is_informative(self, key):
        """Sanity anchor: the compared statistic actually fires (it is not a
        column of NEVER sentinels) on the counts engine."""
        counts = _battery_samples("counts", 1600)
        assert (counts < COUNTS_NEVER).mean() >= 0.5


#: Base seeds for the sequential-reference battery, distinct from the
#: counts battery's.
REFERENCE_SEEDS = {"sequential": 2000, "batched": 2100, "ensemble": 2200, "counts": 2300}


@pytest.fixture(scope="module")
def sequential_reference() -> np.ndarray:
    """The battery statistic on the exact engine (seeded)."""
    return _battery_samples("sequential", REFERENCE_SEEDS["sequential"])


@pytest.mark.usefixtures("max_epidemic_kernels")
class TestSequentialReferenceAcrossProtocols:
    """The exact engine against every other engine on the max-epidemic kernels.

    The sequential engine applies the scalar ``interact`` rule one ordered
    pair at a time, so it is the reference the stacked engines' sub-batch
    scheduling and the counts engine's multiset pairing must match in
    distribution, on the battery's workload and at its KS level.
    """

    @pytest.mark.parametrize("engine", ("batched", "ensemble", "counts"))
    @pytest.mark.parametrize("key", COUNTS_PROTOCOLS)
    def test_engine_matches_sequential(self, sequential_reference, key, engine):
        exact = sequential_reference
        other = _battery_samples(engine, REFERENCE_SEEDS[engine])
        assert len(set(exact.tolist())) >= 3, f"{key}: the statistic has no spread"
        d = ks_statistic(exact, other)
        assert d <= ks_critical(COUNTS_TRIALS, COUNTS_TRIALS, ALPHA), (
            f"{key}: sequential vs {engine} diverge, D={d:.3f}"
        )


class TestCountsResizeConformance:
    """Counts engine vs batched engine on a population-drop workload.

    The adversary cuts the population from 64 to 16 at t=20; the counts
    engine realises the drop as hypergeometric subsampling of the count
    vector, the batched engine by slicing agent rows.  The post-drop
    estimate distributions must agree.
    """

    DROP_TIME = 20
    DROP_TO = 16
    HORIZON = 45

    @staticmethod
    def _factory(engine_name, rng, ensemble_trials):
        return make_engine(
            engine_name,
            VectorizedDynamicCounting(),
            N,
            rng=rng,
            resize_schedule=((TestCountsResizeConformance.DROP_TIME,
                              TestCountsResizeConformance.DROP_TO),),
            trials=ensemble_trials if engine_name == "ensemble" else None,
        )

    def _final_medians(self, engine, seed):
        series = run_engine_trials(
            self._factory,
            engine=engine,
            trials=COUNTS_TRIALS,
            seed=seed,
            parallel_time=self.HORIZON,
        )
        for s in series:  # the drop must actually have happened
            assert s["population_size"][-1] == self.DROP_TO
        return np.array([s["median"][-1] for s in series])

    def test_post_drop_estimates_agree(self):
        counts = self._final_medians("counts", 1800)
        batched = self._final_medians("batched", 1900)
        d = ks_statistic(counts, batched)
        assert d <= ks_critical(COUNTS_TRIALS, COUNTS_TRIALS, ALPHA), (
            f"post-drop estimate distributions diverge, D={d:.3f}"
        )


class TestCountsInvariants:
    """Structural invariants of the count vector, checked at every snapshot:
    counts never go negative and always sum to the current population size,
    through shrinks and regrowths alike."""

    def test_counts_nonnegative_and_conserved_under_resizes(self):
        engine = make_engine(
            "counts",
            DynamicSizeCounting(),
            200,
            rng=RandomSource.from_seed(42),
            resize_schedule=((5, 60), (12, 150)),
        )
        sizes = []

        def check(eng, snapshot):
            counts = eng.state.counts
            assert counts.min() >= 0, "negative count in the state vector"
            assert int(counts.sum()) == snapshot.population_size == eng.size
            sizes.append(snapshot.population_size)

        engine.add_snapshot_hook(check)
        engine.run(20)
        assert 60 in sizes, "shrink event never observed"
        assert sizes[-1] == 150, "grow event not in effect at the horizon"
