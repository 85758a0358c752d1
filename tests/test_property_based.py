"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.geometric import geometric_cdf, max_grv_cdf
from repro.analysis.synchronization import extract_bursts
from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.params import ProtocolParameters, empirical_parameters
from repro.core.state import CountingState, Phase, classify_phase, state_memory_bits
from repro.engine.parallel import merge_shard_results, plan_shards
from repro.engine.population import Population
from repro.engine.protocol import InteractionContext, ProtocolEvent
from repro.engine.registry import make_engine
from repro.engine.rng import RandomSource, SeedTree
from repro.protocols.chvp import CHVP
from repro.protocols.epidemic import MaxEpidemic


# --------------------------------------------------------------------------- strategies

positive_floats = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)
times = st.floats(min_value=-100.0, max_value=1e7, allow_nan=False, allow_infinity=False)


@st.composite
def counting_states(draw):
    return CountingState(
        max_value=draw(positive_floats),
        last_max=draw(positive_floats),
        time=draw(times),
        interactions=draw(st.integers(min_value=0, max_value=10_000)),
    )


@st.composite
def parameter_sets(draw):
    tau3 = draw(st.floats(min_value=0.5, max_value=50))
    tau2 = tau3 + draw(st.floats(min_value=0.5, max_value=50))
    tau1 = tau2 + draw(st.floats(min_value=0.5, max_value=50))
    return ProtocolParameters(
        tau1=tau1,
        tau2=tau2,
        tau3=tau3,
        tau_prime=draw(st.floats(min_value=1.0, max_value=500)),
        k=draw(st.integers(min_value=1, max_value=8)),
        overestimation=draw(st.floats(min_value=1.0, max_value=100.0)),
    )


# --------------------------------------------------------------------------- properties


class TestPhaseClassificationProperties:
    @given(state=counting_states(), params=parameter_sets())
    @settings(max_examples=200)
    def test_every_state_has_exactly_one_phase(self, state, params):
        phase = classify_phase(state, params)
        assert phase in (Phase.EXCHANGE, Phase.HOLD, Phase.RESET)

    @given(state=counting_states(), params=parameter_sets())
    @settings(max_examples=200)
    def test_phase_boundaries_are_consistent(self, state, params):
        """The phase matches the interval definition of Section 3 exactly."""
        phase = classify_phase(state, params)
        scale = state.effective_max
        if phase is Phase.EXCHANGE:
            assert state.time >= params.tau2 * scale
        elif phase is Phase.HOLD:
            assert params.tau3 * scale <= state.time < params.tau2 * scale
        else:
            assert state.time < params.tau3 * scale

    @given(state=counting_states(), params=parameter_sets())
    @settings(max_examples=100)
    def test_estimate_is_effective_max_over_overestimation(self, state, params):
        expected = max(state.max_value, state.last_max) / params.overestimation
        assert math.isclose(state.estimate(params), expected, rel_tol=1e-12)

    @given(state=counting_states())
    @settings(max_examples=100)
    def test_memory_bits_positive_and_logarithmic(self, state):
        bits = state_memory_bits(state)
        assert bits >= 4
        # Four variables, each needs at most log2(value) + 1 bits.
        largest = max(abs(state.max_value), abs(state.last_max), abs(state.time), state.interactions, 2)
        assert bits <= 4 * (math.log2(largest) + 2)


class TestProtocolInvariantProperties:
    @given(
        u_max=positive_floats,
        u_last=positive_floats,
        u_time=times,
        v_max=positive_floats,
        v_last=positive_floats,
        v_time=times,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_dynamic_counting_invariants(self, u_max, u_last, u_time, v_max, v_last, v_time, seed):
        """One interaction of Algorithm 2 from an arbitrary state pair.

        Invariants: the responder never changes, the initiator's variables
        stay in range (max >= 1, interactions >= 0), and the initiator's new
        countdown never exceeds the largest value any rule can set it to —
        its own previous time, the responder's time, or ``tau_1`` times its
        new effective maximum — minus the CHVP decrement.
        """
        protocol = DynamicSizeCounting(empirical_parameters())
        ctx = InteractionContext(RandomSource.from_seed(seed))
        ctx.reset(0, 0, 1)
        u = CountingState(max_value=u_max, last_max=u_last, time=u_time, interactions=3)
        v = CountingState(max_value=v_max, last_max=v_last, time=v_time, interactions=7)
        v_before = v.as_dict()
        u_new, v_new = protocol.interact(u, v, ctx)
        assert v_new.as_dict() == v_before
        assert u_new.max_value >= 1
        assert u_new.interactions >= 1
        params = protocol.params
        rewind_cap = params.tau1 * max(u_new.max_value, u_new.last_max)
        upper = max(u_time, v_time, rewind_cap) - 1
        assert u_new.time <= upper + 1e-6

    @given(
        values=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_chvp_maximum_never_increases(self, values, seed):
        protocol = CHVP()
        ctx = InteractionContext(RandomSource.from_seed(seed))
        ctx.reset(0, 0, 1)
        rng = RandomSource.from_seed(seed)
        states = list(values)
        peak = max(states)
        for _ in range(50):
            i, j = rng.ordered_pair(len(states))
            states[i], states[j] = protocol.interact(states[i], states[j], ctx)
            assert max(states) <= peak
            peak = max(states)

    @given(
        values=st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_epidemic_monotone_and_bounded(self, values, seed):
        """Every agent's value only grows and never exceeds the initial maximum."""
        protocol = MaxEpidemic()
        ctx = InteractionContext(RandomSource.from_seed(seed))
        rng = RandomSource.from_seed(seed)
        states = list(values)
        initial_max = max(states)
        for _ in range(50):
            i, j = rng.ordered_pair(len(states))
            before = states[i]
            states[i], states[j] = protocol.interact(states[i], states[j], ctx)
            assert states[i] >= before
            assert max(states) == initial_max


class TestEngineProperties:
    @given(
        initial=st.lists(st.integers(), min_size=2, max_size=50),
        removals=st.integers(min_value=0, max_value=20),
        additions=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_population_size_bookkeeping(self, initial, removals, additions, seed):
        population = Population(initial)
        rng = RandomSource.from_seed(seed)
        removals = min(removals, population.size)
        population.remove_random(removals, rng)
        for value in range(additions):
            population.add(value)
        assert population.size == len(initial) - removals + additions
        # Stable ids remain unique.
        ids = list(population.stable_ids())
        assert len(ids) == len(set(ids))

    @given(
        interactions=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=200),
        gap=st.integers(min_value=1, max_value=5_000),
    )
    @settings(max_examples=100)
    def test_burst_extraction_partitions_ticks(self, interactions, gap):
        events = [ProtocolEvent("tick", agent_id=0, interaction=i) for i in interactions]
        bursts = extract_bursts(events, gap_threshold=gap)
        assert sum(b.tick_count for b in bursts) == len(events)
        # Bursts are ordered and separated by more than the gap threshold.
        for earlier, later in zip(bursts, bursts[1:]):
            assert later.start - earlier.end > gap


class TestParallelExecutionProperties:
    @given(
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=25),
                st.integers(min_value=2, max_value=120),
            ),
            min_size=0,
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_valid_resize_schedule_keeps_population_at_least_two(
        self, events, seed
    ):
        """Whatever the adversary does — shrink, grow, duplicate event
        times, out-of-order times — the population never drops below two
        agents at any snapshot."""
        engine = make_engine(
            "batched",
            DynamicSizeCounting(),
            30,
            seed=seed,
            resize_schedule=events,
        )
        result = engine.run(30)
        assert engine.size >= 2
        assert all(snapshot.population_size >= 2 for snapshot in result.snapshots)

    @given(
        trials=st.integers(min_value=1, max_value=200),
        shard_size=st.integers(min_value=1, max_value=40),
        order_seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150)
    def test_shard_merge_is_order_invariant(self, trials, shard_size, order_seed):
        """Merging per-shard result streams yields the same trial-ordered
        list no matter which order the shards complete in."""
        shards = plan_shards(trials, shard_size=shard_size)
        per_shard = [[("trial", t) for t in shard.trial_indices()] for shard in shards]
        expected = [("trial", t) for t in range(trials)]
        permutation = RandomSource.from_seed(order_seed).shuffled(range(len(shards)))
        shuffled_shards = [shards[i] for i in permutation]
        shuffled_results = [per_shard[i] for i in permutation]
        assert merge_shard_results(shuffled_shards, shuffled_results) == expected
        # The layout itself tiles [0, trials) without gaps or overlaps.
        assert shards[0].start == 0 and shards[-1].stop == trials
        assert all(a.stop == b.start for a, b in zip(shards, shards[1:]))

    @given(seed=st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=5, deadline=None)
    def test_seed_tree_children_never_collide_across_10k_spawns(self, seed):
        """10^4 sibling children of one root all seed distinct generator
        states (the pool-scale no-stream-reuse guarantee)."""
        tree = SeedTree.from_seed(seed)
        states = {
            tuple(tree.trial(t).sequence().generate_state(2).tolist())
            for t in range(10_000)
        }
        assert len(states) == 10_000

    @given(seed=st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=10, deadline=None)
    def test_seed_tree_namespaced_children_distinct_from_trials(self, seed):
        """Shard-namespace streams never alias trial streams of any index."""
        tree = SeedTree.from_seed(seed)
        trial_states = {
            tuple(tree.trial(t).sequence().generate_state(2).tolist())
            for t in range(64)
        }
        shard_states = {
            tuple(
                tree.child("shard", t).sequence().generate_state(2).tolist()
            )
            for t in range(64)
        }
        assert not (trial_states & shard_states)


class TestDistributionProperties:
    @given(value=st.integers(min_value=1, max_value=60), count=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=200)
    def test_max_cdf_bounded_and_monotone_in_count(self, value, count):
        cdf = max_grv_cdf(value, count)
        assert 0.0 <= cdf <= 1.0
        assert cdf <= geometric_cdf(value)
        assert max_grv_cdf(value, count + 1) <= cdf + 1e-12
