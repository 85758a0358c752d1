"""Unit tests for the counts (multiset) engine and its kernels.

The statistical agreement of the counts engine with the per-agent engines
is covered by ``test_statistical_conformance.py``; this module pins the
mechanics — multiset sampling, weighted quantiles, state packing, resizes,
determinism, and the kernel adapters' bookkeeping.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.counts_engine as counts_engine
from repro.analysis.stats import chi_square_critical
from repro.core.counts import DynamicCountingCountsKernel
from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.api import quantiles
from repro.engine.counts_engine import (
    GRV_VALUE_CAP,
    CountsSimulator,
    PackedCountsKernel,
    grv_max_pmf,
    merge_counts,
    multiset_sample,
    weighted_quantiles,
)
from repro.engine.errors import ConfigurationError
from repro.engine.registry import make_engine
from repro.engine.rng import RandomSource
from repro.protocols.counts import (
    ApproximateMajorityCountsKernel,
    InfectionEpidemicCountsKernel,
    JuntaElectionCountsKernel,
    MaxEpidemicCountsKernel,
)
from repro.protocols.epidemic import MaxEpidemic

# ------------------------------------------------------------------ sampling


class TestMultisetSample:
    def test_invariants_over_random_draws(self):
        generator = np.random.default_rng(7)
        for _ in range(50):
            counts = generator.integers(0, 40, size=6)
            total = int(counts.sum())
            size = int(generator.integers(0, total + 1))
            drawn = multiset_sample(generator, counts, size)
            assert int(drawn.sum()) == size
            assert (drawn >= 0).all()
            assert (drawn <= counts).all()

    def test_edge_sizes(self):
        generator = np.random.default_rng(0)
        counts = np.array([3, 0, 5], dtype=np.int64)
        assert multiset_sample(generator, counts, 0).tolist() == [0, 0, 0]
        assert multiset_sample(generator, counts, 8).tolist() == [3, 0, 5]

    def test_invalid_sizes_rejected(self):
        generator = np.random.default_rng(0)
        counts = np.array([2, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            multiset_sample(generator, counts, -1)
        with pytest.raises(ValueError):
            multiset_sample(generator, counts, 5)

    def test_large_total_fallback_keeps_invariants(self, monkeypatch):
        """Force the sequential conditional path (normally only hit above
        numpy's 10^9 sampler limit) and check the same invariants hold."""
        monkeypatch.setattr(counts_engine, "_NUMPY_HYPERGEOMETRIC_LIMIT", 16)
        generator = np.random.default_rng(11)
        for _ in range(50):
            counts = generator.integers(0, 30, size=5)
            total = int(counts.sum())
            size = int(generator.integers(0, total + 1))
            drawn = multiset_sample(generator, counts, size)
            assert int(drawn.sum()) == size
            assert (drawn >= 0).all()
            assert (drawn <= counts).all()

    def test_fallback_matches_exact_sampler_in_distribution(self, monkeypatch):
        """The conditional path draws the same marginal distribution as the
        exact sampler (here every operand still fits, so it *is* exact)."""
        counts = np.array([60, 40], dtype=np.int64)
        exact = np.array(
            [
                multiset_sample(np.random.default_rng(s), counts, 20)[0]
                for s in range(300)
            ]
        )
        monkeypatch.setattr(counts_engine, "_NUMPY_HYPERGEOMETRIC_LIMIT", 16)
        fallback = np.array(
            [
                multiset_sample(np.random.default_rng(s), counts, 20)[0]
                for s in range(300)
            ]
        )
        # Hypergeometric mean is size * 60/100 = 12; both paths must agree.
        assert abs(exact.mean() - 12.0) < 0.5
        assert abs(fallback.mean() - 12.0) < 0.5


class TestWeightedQuantiles:
    def test_matches_repeat_based_quantiles(self):
        generator = np.random.default_rng(3)
        for _ in range(40):
            size = int(generator.integers(1, 8))
            values = generator.normal(size=size).round(2)
            weights = generator.integers(0, 9, size=size)
            if weights.sum() == 0:
                weights[0] = 1
            expected = quantiles(np.repeat(values, weights))
            assert weighted_quantiles(values, weights) == expected

    def test_even_total_averages_middle_pair(self):
        assert weighted_quantiles([1.0, 3.0], [1, 1]) == (1.0, 2.0, 3.0)

    def test_zero_weight_values_ignored(self):
        assert weighted_quantiles([99.0, 5.0], [0, 3]) == (5.0, 5.0, 5.0)

    def test_nan_on_occupied_value_poisons_all(self):
        lo, med, hi = weighted_quantiles([float("nan"), 1.0], [2, 2])
        assert np.isnan(lo) and np.isnan(med) and np.isnan(hi)

    def test_nan_on_zero_weight_value_is_harmless(self):
        assert weighted_quantiles([float("nan"), 1.0], [0, 2]) == (1.0, 1.0, 1.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            weighted_quantiles([1.0, 2.0], [1])
        with pytest.raises(ValueError):
            weighted_quantiles([1.0], [-1])
        with pytest.raises(ValueError):
            weighted_quantiles([1.0], [0])


class TestGrvMaxPmf:
    def test_sums_to_one_and_nonnegative(self):
        for k in (1, 2, 16, 1024):
            pmf = grv_max_pmf(k)
            assert pmf.shape == (GRV_VALUE_CAP,)
            assert (pmf >= 0).all()
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_cdf(self):
        k = 16
        pmf = grv_max_pmf(k)
        for m in (1, 4, 10):
            cdf = pmf[:m].sum()
            assert cdf == pytest.approx((1.0 - 2.0**-m) ** k, abs=1e-12)

    def test_more_samples_shift_mass_up(self):
        values = np.arange(1, GRV_VALUE_CAP + 1)
        assert (grv_max_pmf(64) * values).sum() > (grv_max_pmf(2) * values).sum()

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            grv_max_pmf(0)
        with pytest.raises(ValueError):
            grv_max_pmf(4, cap=0)


# ------------------------------------------------------------------- packing


class ToyKernel(PackedCountsKernel):
    """Minimal packed kernel (identity transition) for packing tests."""

    name = "toy"
    two_way = False
    fields = (("a", 5), ("b", 7))

    def initial_state(self, n, rng):
        columns = {"a": np.zeros(1, np.int64), "b": np.zeros(1, np.int64)}
        return self.state_from_columns(columns, np.array([n], dtype=np.int64))

    def output_values(self, state):
        return state.columns["a"].astype(np.float64)

    def transition(self, u, v, multiplicity, rng):
        return {"a": u["a"], "b": u["b"]}, multiplicity, None, None


class TestPackedKernel:
    def test_pack_unpack_roundtrip(self):
        kernel = ToyKernel()
        generator = np.random.default_rng(5)
        columns = {
            "a": generator.integers(0, 5, size=30),
            "b": generator.integers(0, 7, size=30),
        }
        unpacked = kernel.unpack(kernel.pack(columns))
        assert np.array_equal(unpacked["a"], columns["a"])
        assert np.array_equal(unpacked["b"], columns["b"])

    def test_packing_capacity_guard(self):
        class Overflowing(ToyKernel):
            fields = (("a", 2**40), ("b", 2**40))

        with pytest.raises(ConfigurationError, match="pack"):
            Overflowing()._check_packing()

    def test_state_from_columns_merges_duplicates(self):
        kernel = ToyKernel()
        columns = {
            "a": np.array([1, 1, 2], dtype=np.int64),
            "b": np.array([3, 3, 0], dtype=np.int64),
        }
        state = kernel.state_from_columns(columns, np.array([4, 6, 1], dtype=np.int64))
        assert state.num_states == 2
        assert state.total() == 11
        merged = dict(zip(state.keys.tolist(), state.counts.tolist()))
        assert merged[kernel.pack({"a": [1], "b": [3]})[0]] == 10

    def test_state_from_arrays_accepts_vectorized_planes(self):
        kernel = ToyKernel()
        state = kernel.state_from_arrays(
            {
                "a": np.array([0.0, 1.0, 1.0]),  # float planes are fine if integral
                "b": np.array([2, 2, 2]),
                "ticks": np.zeros(3),  # extra planes are ignored
            }
        )
        assert state.total() == 3
        assert state.num_states == 2

    @pytest.mark.parametrize(
        "arrays,match",
        [
            ({"a": np.zeros(3)}, "missing state plane"),
            ({"a": np.array([0.5, 0, 0]), "b": np.zeros(3)}, "non-integral"),
            ({"a": np.array([9, 0, 0]), "b": np.zeros(3)}, "value range"),
            ({"a": np.zeros(3), "b": np.zeros(2)}, "unequal lengths"),
        ],
    )
    def test_state_from_arrays_validation(self, arrays, match):
        with pytest.raises(ConfigurationError, match=match):
            ToyKernel().state_from_arrays(arrays)

    def test_merge_counts_drops_emptied_rows(self):
        keys = np.array([3, 7], dtype=np.int64)
        counts = np.array([2, 5], dtype=np.int64)
        merged_keys, merged_counts = merge_counts(
            keys, counts, np.array([3, 9], dtype=np.int64), np.array([-2, 1], dtype=np.int64)
        )
        assert merged_keys.tolist() == [7, 9]
        assert merged_counts.tolist() == [5, 1]


# ----------------------------------------------------------------- simulator


class TestCountsSimulatorConstruction:
    def test_rejects_non_kernel_protocol(self):
        with pytest.raises(ConfigurationError):
            CountsSimulator(DynamicSizeCounting(), 100, seed=1)

    def test_rejects_tiny_population_and_bad_sub_batches(self):
        kernel = DynamicCountingCountsKernel()
        with pytest.raises(ConfigurationError):
            CountsSimulator(kernel, 1, seed=1)
        with pytest.raises(ConfigurationError):
            CountsSimulator(kernel, 100, seed=1, sub_batches=0)

    def test_rejects_mismatched_initial_state(self):
        kernel = ApproximateMajorityCountsKernel()
        state = kernel.state_from_opinion_counts(3, 4)
        with pytest.raises(ConfigurationError):
            CountsSimulator(kernel, 100, seed=1, initial_state=state)

    def test_rejects_bad_resize_events(self):
        kernel = DynamicCountingCountsKernel()
        with pytest.raises(ConfigurationError):
            CountsSimulator(kernel, 100, seed=1, resize_schedule=((-1, 50),))
        with pytest.raises(ConfigurationError):
            CountsSimulator(kernel, 100, seed=1, resize_schedule=((3, 1),))


class TestCountsSimulatorRuns:
    def test_population_conserved_and_bookkeeping(self):
        engine = CountsSimulator(DynamicCountingCountsKernel(), 500, seed=9)
        result = engine.run(6)
        assert engine.size == 500
        assert engine.interactions_executed == 6 * 500
        assert engine.outputs().shape == (500,)
        assert all(s.population_size == 500 for s in result.snapshots)
        assert result.metadata["engine"] == "counts"
        assert result.metadata["sub_batches"] == 8
        assert result.metadata["occupied_states"] >= 1
        assert result.metadata["peak_states"] >= result.metadata["occupied_states"]
        assert result.metadata["total_ticks"] >= 0

    def test_identical_seeds_identical_series(self):
        runs = [
            CountsSimulator(DynamicCountingCountsKernel(), 300, seed=21).run(8).series()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_distinct_seeds_diverge(self):
        a = CountsSimulator(DynamicCountingCountsKernel(), 300, seed=1).run(8).series()
        b = CountsSimulator(DynamicCountingCountsKernel(), 300, seed=2).run(8).series()
        assert a != b

    def test_estimate_converges_to_log_n(self):
        engine = CountsSimulator(DynamicCountingCountsKernel(), 4096, seed=13)
        result = engine.run(40)
        # The stored maxima chase log2(n * k); with the empirical k=16 and
        # n=4096 that is 16.
        assert abs(result.snapshots[-1].median - 16.0) <= 3.0

    def test_resize_to_shrinks_and_grows(self):
        engine = CountsSimulator(DynamicCountingCountsKernel(), 400, seed=4)
        engine.run(3)
        engine.resize_to(50)
        assert engine.size == 50
        assert (engine.state.counts >= 0).all()
        engine.resize_to(600)
        assert engine.size == 600
        with pytest.raises(ConfigurationError):
            engine.resize_to(1)

    def test_two_way_majority_resolves(self):
        kernel = ApproximateMajorityCountsKernel()
        engine = CountsSimulator(
            kernel, 32, seed=8, initial_state=kernel.state_from_opinion_counts(30, 2)
        )
        result = engine.run(25)
        assert result.snapshots[-1].median == 1.0
        assert engine.size == 32

    def test_two_way_infection_spreads_to_everyone(self):
        kernel = InfectionEpidemicCountsKernel(one_way=False)
        state = kernel.state_from_columns(
            {"infected": np.array([1, 0], dtype=np.int64)},
            np.array([1, 99], dtype=np.int64),
        )
        engine = CountsSimulator(kernel, 100, seed=15, initial_state=state)
        result = engine.run(30)
        assert result.snapshots[-1].minimum == 1.0

    def test_junta_elects_a_nonempty_junta(self):
        engine = CountsSimulator(JuntaElectionCountsKernel(max_level=20), 256, seed=17)
        result = engine.run(30)
        assert result.snapshots[-1].maximum == 1.0

    def test_one_way_epidemic_through_make_engine_initial_arrays(self):
        value = np.zeros(64)
        value[0] = 9.0
        engine = make_engine(
            "counts", MaxEpidemic(one_way=True), 64, seed=6, initial_arrays={"value": value}
        )
        assert isinstance(engine, CountsSimulator)
        result = engine.run(30)
        assert result.snapshots[-1].maximum == 9.0
        assert result.snapshots[-1].minimum == 9.0

    def test_kernel_grow_injects_fresh_agents(self):
        kernel = MaxEpidemicCountsKernel(initial_value=2, one_way=True)
        engine = CountsSimulator(kernel, 50, seed=3)
        engine.resize_to(80)
        assert engine.size == 80
        # The 30 newcomers arrive in the kernel's initial configuration.
        assert weighted_quantiles(
            kernel.output_values(engine.state), engine.state.counts
        )[0] == 2.0


class TestDynamicCountingKernelDetails:
    def test_non_integral_parameters_rejected(self):
        from repro.core.params import ProtocolParameters

        params = ProtocolParameters(
            tau1=4.5, tau2=2, tau3=1, tau_prime=20, grv_samples=8
        )
        with pytest.raises(ConfigurationError):
            DynamicCountingCountsKernel(params)

    def test_initial_state_with_estimate_matches_outputs(self):
        kernel = DynamicCountingCountsKernel()
        state = kernel.initial_state_with_estimate(1000, 60)
        assert state.total() == 1000
        assert kernel.output_values(state).tolist() == [60.0]

    def test_tick_total_accumulates(self):
        kernel = DynamicCountingCountsKernel()
        engine = CountsSimulator(kernel, 2048, seed=19)
        engine.run(15)
        # Most agents reset early on (some instead adopt a neighbour's max
        # before their timer runs out), each reset drawing one GRV tick.
        assert kernel.tick_total() >= 1024

    def test_responder_view_coarsens_the_state_space(self):
        kernel = DynamicCountingCountsKernel()
        engine = CountsSimulator(kernel, 4096, seed=23)
        engine.run(10)
        class_id, columns = kernel.responder_view(engine.state)
        assert class_id.shape[0] == engine.state.num_states
        assert columns is not None
        classes = int(class_id.max()) + 1
        assert classes < engine.state.num_states
        for name in ("max", "last_max", "time"):
            assert columns[name].shape[0] >= classes


# ------------------------------------------------- descending-probability draws


def chi_square_gof(observed: np.ndarray, probabilities: np.ndarray) -> tuple[float, int]:
    """Goodness-of-fit statistic and degrees of freedom against a pmf.

    Bins expecting fewer than five draws (the GRV pmf's far tails) are
    folded into their nearest kept neighbour; the kept bins of a unimodal
    pmf form one contiguous run.
    """
    observed = np.asarray(observed, dtype=float)
    expected = observed.sum() * np.asarray(probabilities, dtype=float)
    kept = np.flatnonzero(expected >= 5.0)
    low, high = int(kept[0]), int(kept[-1]) + 1
    obs = observed[low:high].copy()
    exp = expected[low:high].copy()
    obs[0] += observed[:low].sum()
    exp[0] += expected[:low].sum()
    obs[-1] += observed[high:].sum()
    exp[-1] += expected[high:].sum()
    return float(((obs - exp) ** 2 / exp).sum()), obs.size - 1


class TestDescendingProbabilityDraws:
    """The multinomials draw their categories heaviest first; labels map back."""

    def test_pairing_maps_responder_classes_back(self):
        kernel = DynamicCountingCountsKernel()
        # Responder classes sort by key (ascending max) while their mass
        # grows with the key, so the draw order reverses the key order.
        # The two max=6 states differ only in their interaction counter
        # and share one responder class.
        maxima = np.array([1, 2, 3, 4, 5, 6, 6])
        columns = {
            "max": maxima,
            "last_max": np.ones(7, dtype=np.int64),
            "time": 6 * maxima,
            "interactions": np.array([0, 0, 0, 0, 0, 0, 3]),
        }
        state = kernel.state_from_columns(
            columns, np.array([10, 20, 40, 80, 160, 200, 120])
        )
        engine = CountsSimulator(kernel, 630, seed=11, initial_state=state)
        class_mass = np.array([10, 20, 40, 80, 160, 320])
        initiators = np.array([2, 0, 5, 1, 9, 30, 3])
        occupied = np.flatnonzero(initiators)
        pooled = np.zeros(class_mass.size, dtype=np.int64)
        for _ in range(300):
            initiator_idx, responder_idx, pair_counts, responder_columns = (
                engine._pair_with_replacement(initiators, occupied)
            )
            assert responder_columns["max"].tolist() == [1, 2, 3, 4, 5, 6]
            rows = np.zeros(initiators.size, dtype=np.int64)
            np.add.at(rows, initiator_idx, pair_counts)
            assert rows.tolist() == initiators.tolist()
            np.add.at(pooled, responder_idx, pair_counts)
        statistic, df = chi_square_gof(pooled, class_mass / class_mass.sum())
        assert statistic < chi_square_critical(df, 1e-3), (statistic, pooled)

    def test_grv_expansion_maps_values_back(self):
        kernel = DynamicCountingCountsKernel()
        rng = RandomSource.from_seed(12)
        multiplicity = np.array([1, 3, 7, 20, 100])
        pooled = np.zeros(GRV_VALUE_CAP, dtype=np.int64)
        for _ in range(300):
            cell, grv, counts = kernel._expand_grv(multiplicity, rng)
            rows = np.zeros(multiplicity.size, dtype=np.int64)
            np.add.at(rows, cell, counts)
            assert rows.tolist() == multiplicity.tolist()
            np.add.at(pooled, grv - 1, counts)
        pmf = grv_max_pmf(kernel.params.grv_samples)
        statistic, df = chi_square_gof(pooled, pmf)
        assert statistic < chi_square_critical(df, 1e-3), (statistic, pooled)
