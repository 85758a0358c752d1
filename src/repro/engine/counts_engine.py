"""Counts-based multiset engine: O(|Q|^2) parallel steps independent of n.

Every other engine holds per-agent state arrays, so one parallel time step
costs O(n) no matter how simple the protocol is.  Population protocols are
anonymous, though: the population is fully described by the *multiset* of
states, i.e. a ``(|Q|,)`` vector of state counts.  This engine advances that
vector directly (Gillespie / tau-leaping style):

* the initiators of a sub-batch are a uniform random sub-multiset of the
  population, drawn **without replacement** via a multivariate
  hypergeometric marginal draw (:func:`multiset_sample`) — which is also
  what guarantees counts never go negative;
* their responders are drawn with replacement from the batch-start state
  distribution (mirroring the batched engine's responder snapshot), via
  one vectorised multinomial;
* the protocol's :class:`CountsKernel` then turns the ordered
  (initiator-state, responder-state) interaction counts into transition
  deltas on the count vector, splitting cells by random outcome (GRV
  draws) with one more multinomial per sub-batch.

Kernels are one-way: a transition writes the initiator only, as
Algorithm 2 does.

The responder and GRV multinomials take their categories in
descending-probability order and map the drawn columns back.  NumPy's
multinomial stops a row once its count is spent, and most rows hold fewer
draws than there are categories (at n = 10^6, about 480 of the ~590
initiator rows of a sub-batch, against ~90 responder classes), so
heaviest-first ends most rows after a few columns.  Only the labels
move; the distribution is unchanged.

Per-step cost is O(|Q| * |R|) in the number of occupied states |Q| and
responder classes |R| — *independent of n* — which unlocks populations of
10^7-10^9 agents (the numpy hypergeometric samplers cap totals at 10^9;
beyond that :func:`multiset_sample` switches to a conditional binomial
approximation whose error is O(batch/n), i.e. negligible exactly where it
is used).

The engine implements the shared :class:`repro.engine.api.Engine` contract
(snapshots, resize schedule, ``stop_when``, hooks), so experiment
code selects it like any other engine (``make_engine("counts", ...)``).
Correctness is statistical, not bit-exact: the sub-batch semantics match
the batched engine's synchronous-rounds approximation up to collision
handling (the batched engine resolves duplicate initiators
last-writer-wins; this engine applies every drawn interaction once), and
``tests/test_statistical_conformance.py`` pins the distributional agreement
for every protocol with a counts kernel.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.engine.api import Engine, EngineSnapshot, RunResult
from repro.engine.errors import CheckpointError, ConfigurationError, EmptyPopulationError
from repro.engine.rng import RandomSource

__all__ = [
    "CountsState",
    "CountsKernel",
    "PackedCountsKernel",
    "CountsSimulator",
    "multiset_sample",
    "weighted_quantiles",
    "grv_max_pmf",
    "GRV_VALUE_CAP",
]

#: Totals at or above this are rejected by numpy's ``hypergeometric`` /
#: ``multivariate_hypergeometric`` samplers; :func:`multiset_sample` switches
#: to the conditional binomial approximation there.
_NUMPY_HYPERGEOMETRIC_LIMIT = 10**9

#: Largest GRV value the count-level samplers distinguish.  The tail mass
#: above it is ``k * 2**-64`` (< 1e-18 for every preset) and is lumped into
#: the last bin; the per-agent engines' inverse-CDF sampler saturates around
#: 60 for the same float64 reason.
GRV_VALUE_CAP = 64


def multiset_sample(
    generator: np.random.Generator, counts: np.ndarray, size: int
) -> np.ndarray:
    """Draw ``size`` items without replacement from a multiset of counts.

    Returns the per-category counts of a uniformly random sub-multiset —
    the multivariate hypergeometric distribution.  For totals below numpy's
    10^9 sampler limit this is numpy's exact ``method="marginals"`` draw;
    above it, categories are drawn sequentially from the conditional
    distribution, using the exact scalar hypergeometric where its operands
    fit and a clipped binomial approximation where they do not (relative
    error O(size/total), vanishing exactly in the huge-``total`` regime
    that forces the fallback).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if size < 0 or size > total:
        raise ValueError(f"sample size must lie in [0, {total}], got {size}")
    if size == 0:
        return np.zeros_like(counts)
    if size == total:
        return counts.copy()
    if total < _NUMPY_HYPERGEOMETRIC_LIMIT:
        drawn = generator.multivariate_hypergeometric(counts, size, method="marginals")
        return np.asarray(drawn, dtype=np.int64)
    out = np.zeros_like(counts)
    remaining_total = total
    remaining_size = size
    for index, category in enumerate(counts.tolist()):
        if remaining_size == 0:
            break
        if category == 0:
            continue
        rest = remaining_total - category
        if rest == 0:
            drawn_count = remaining_size
        elif (
            category < _NUMPY_HYPERGEOMETRIC_LIMIT
            and rest < _NUMPY_HYPERGEOMETRIC_LIMIT
        ):
            drawn_count = int(generator.hypergeometric(category, rest, remaining_size))
        else:
            drawn_count = int(
                generator.binomial(remaining_size, category / remaining_total)
            )
            low = max(0, remaining_size - rest)
            drawn_count = min(max(drawn_count, low), category, remaining_size)
        out[index] = drawn_count
        remaining_size -= drawn_count
        remaining_total = rest
    return out


def weighted_quantiles(
    values: Sequence[float] | np.ndarray, weights: Sequence[int] | np.ndarray
) -> tuple[float, float, float]:
    """(min, median, max) of a population given per-value multiplicities.

    The counts engine's counterpart of :func:`repro.engine.api.quantiles`:
    identical to ``quantiles(np.repeat(values, weights))`` — including the
    even-total median averaging the two middle items and the all-NaN answer
    when any occupied value is NaN — without materialising the ``n``
    repeats.
    """
    value_arr = np.asarray(values, dtype=float)
    weight_arr = np.asarray(weights, dtype=np.int64)
    if value_arr.shape != weight_arr.shape:
        raise ValueError(
            f"values and weights must align, got {value_arr.shape} vs {weight_arr.shape}"
        )
    if (weight_arr < 0).any():
        raise ValueError("weights must be non-negative")
    occupied = weight_arr > 0
    value_arr = value_arr[occupied]
    weight_arr = weight_arr[occupied]
    total = int(weight_arr.sum())
    if total == 0:
        raise ValueError("weighted_quantiles() requires a non-empty population")
    if np.isnan(value_arr).any():
        nan = float("nan")
        return nan, nan, nan
    order = np.argsort(value_arr, kind="stable")
    value_arr = value_arr[order]
    cumulative = np.cumsum(weight_arr[order])
    mid = total // 2
    if total % 2:
        median = float(value_arr[np.searchsorted(cumulative, mid + 1)])
    else:
        low = float(value_arr[np.searchsorted(cumulative, mid)])
        high = float(value_arr[np.searchsorted(cumulative, mid + 1)])
        median = 0.5 * (low + high)
    return float(value_arr[0]), median, float(value_arr[-1])


def grv_max_pmf(k: int, cap: int = GRV_VALUE_CAP) -> np.ndarray:
    """Pmf of the maximum of ``k`` Geom(1/2) draws on ``{1, ..., cap}``.

    ``P[G <= m] = (1 - 2^-m)^k`` in closed form; the (astronomically small)
    tail above ``cap`` is lumped into the last bin so the vector sums to
    one exactly.  This is how the counts engine regenerates the paper's
    GRVs for *groups* of resetting agents: one multinomial over this pmf
    replaces per-agent geometric draws.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    m = np.arange(cap + 1, dtype=np.float64)
    cdf = (1.0 - np.exp2(-m)) ** k
    pmf = np.diff(cdf)
    pmf[-1] += 1.0 - cdf[-1]
    return pmf


@dataclass
class CountsState:
    """Mutable multiset population state: counts over a table of states.

    Attributes
    ----------
    keys:
        Sorted, unique state identifiers (one sortable scalar per occupied
        state — packed integers for the built-in kernels).
    counts:
        int64 multiplicities aligned with ``keys``; always non-negative and
        summing to the population size.
    columns:
        Per-state attribute planes aligned with ``keys`` (the unpacked
        state fields the kernel's transition reads).
    """

    keys: np.ndarray
    counts: np.ndarray
    columns: dict[str, np.ndarray]

    @property
    def num_states(self) -> int:
        return int(self.keys.shape[0])

    def total(self) -> int:
        return int(self.counts.sum())

    def compact(self) -> None:
        """Drop zero-count rows (after resizes / transition merges)."""
        occupied = self.counts > 0
        if occupied.all():
            return
        self.keys = self.keys[occupied]
        self.counts = self.counts[occupied]
        self.columns = {name: col[occupied] for name, col in self.columns.items()}


def merge_counts(
    keys: np.ndarray,
    counts: np.ndarray,
    extra_keys: np.ndarray,
    extra_counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two (keys, counts) multisets into one sorted, deduplicated pair.

    ``counts`` entries may be negative (a transition subtracts before it
    adds); rows whose merged count is zero are dropped.  Counts stay exact:
    they ride through the bincount as float64, which is lossless below
    2^53 — far above any supported population size.
    """
    all_keys = np.concatenate([keys, extra_keys])
    all_counts = np.concatenate([counts, extra_counts])
    unique_keys, inverse = np.unique(all_keys, return_inverse=True)
    merged = np.bincount(
        inverse, weights=all_counts.astype(np.float64), minlength=len(unique_keys)
    ).astype(np.int64)
    occupied = merged != 0
    return unique_keys[occupied], merged[occupied]


class CountsKernel(abc.ABC):
    """Per-protocol adapter from agent-level transitions to count vectors.

    A kernel owns the state enumeration (fixed for finite protocols, lazily
    discovered for the log-n levels of dynamic counting), the transition on
    (initiator-state, responder-state) interaction counts, and the
    per-state output values the engine's snapshots aggregate.
    """

    #: Name used in run metadata.
    name: str = "counts-kernel"

    @abc.abstractmethod
    def initial_state(self, n: int, rng: RandomSource) -> CountsState:
        """Count state of ``n`` fresh agents in the protocol's initial state."""

    @abc.abstractmethod
    def output_values(self, state: CountsState) -> np.ndarray:
        """Per-state float outputs aligned with ``state.keys``."""

    @abc.abstractmethod
    def apply(
        self,
        state: CountsState,
        initiator_idx: np.ndarray,
        responder_idx: np.ndarray,
        pair_counts: np.ndarray,
        responder_columns: Mapping[str, np.ndarray],
        rng: RandomSource,
    ) -> None:
        """Apply ``pair_counts[j]`` ordered interactions per (state, class) cell.

        ``initiator_idx`` indexes ``state``; ``responder_idx`` indexes the
        responder classes of :meth:`responder_view`, whose fields
        ``responder_columns`` carries.  Only initiators change state.
        Mutates ``state`` in place; must preserve the total count.
        """

    def responder_view(
        self, state: CountsState
    ) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
        """Coarsen states into responder-equivalence classes.

        Returns ``(class_id_per_state, class_columns)``.  The default is the
        identity (every state its own class, ``None`` columns meaning "read
        the state table").  Kernels whose transition reads only part of the
        responder state (dynamic counting reads ``(max, lastMax, time)`` but
        not the interaction counter) override this to shrink the pair table
        from |Q|^2 to |Q| x |R| cells.
        """
        return np.arange(state.num_states), None

    def grow(self, state: CountsState, count: int, rng: RandomSource) -> None:
        """Add ``count`` fresh agents in the protocol's initial state."""
        extra = self.initial_state(count, rng)
        self.merge_into(state, extra.keys, extra.counts)

    @abc.abstractmethod
    def merge_into(
        self, state: CountsState, extra_keys: np.ndarray, extra_counts: np.ndarray
    ) -> None:
        """Merge extra (keys, counts) rows into ``state`` and rebuild columns."""

    def tick_total(self) -> int | None:
        """Cumulative protocol ticks (resets) applied so far, if tracked."""
        return None

    def restore_tick_total(self, total: int | None) -> None:
        """Restore the cumulative tick counter from an engine checkpoint.

        No-op for kernels that do not track ticks (:meth:`tick_total`
        returning ``None``); tracking kernels override this so a resumed
        run reports the same total a continuous run would have.
        """

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "class": type(self).__name__}


class PackedCountsKernel(CountsKernel):
    """Shared machinery for kernels whose state packs into one int64 key.

    Subclasses declare ``fields`` — ``(name, cardinality)`` pairs, where
    ``cardinality`` bounds the field's value range ``[0, cardinality)`` —
    and implement :meth:`transition`, the cell-level transition.  Packing,
    unpacking, table merging, per-agent array conversion and the
    :meth:`CountsKernel.apply` plumbing all live here.
    """

    #: ``(field name, cardinality)`` pairs; subclasses set this (usually in
    #: ``__init__`` when the bounds depend on protocol parameters).
    fields: tuple[tuple[str, int], ...] = ()

    #: Responder fields the transition reads; defaults to every field.
    responder_fields: tuple[str, ...] | None = None

    def _check_packing(self) -> None:
        """Validate that the declared field bounds fit one signed int64."""
        capacity = 1
        for name, cardinality in self.fields:
            if cardinality < 1:
                raise ConfigurationError(
                    f"field {name!r} has non-positive cardinality {cardinality}"
                )
            capacity *= cardinality
        if capacity >= 2**62:
            raise ConfigurationError(
                f"counts kernel {self.name!r} cannot pack its state space "
                f"({capacity} combinations) into one int64 key; this protocol "
                "parameterisation needs the per-agent engines"
            )

    # ------------------------------------------------------------- pack/unpack

    def pack(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Pack per-state field columns into int64 keys (mixed-radix)."""
        key = None
        for name, cardinality in self.fields:
            values = np.asarray(columns[name], dtype=np.int64)
            key = values if key is None else key * cardinality + values
        assert key is not None, "a packed kernel needs at least one field"
        return key

    def unpack(self, keys: np.ndarray) -> dict[str, np.ndarray]:
        """Invert :meth:`pack` into per-state field columns."""
        remainder = np.asarray(keys, dtype=np.int64)
        columns: dict[str, np.ndarray] = {}
        for name, cardinality in reversed(self.fields):
            columns[name] = remainder % cardinality
            remainder = remainder // cardinality
        return columns

    def state_from_columns(
        self, columns: Mapping[str, np.ndarray], counts: np.ndarray
    ) -> CountsState:
        """Build a (deduplicated) state from aligned field columns and counts."""
        keys = self.pack(columns)
        unique_keys, merged = merge_counts(
            keys, np.asarray(counts, dtype=np.int64), keys[:0], counts[:0]
        )
        return CountsState(
            keys=unique_keys, counts=merged, columns=self.unpack(unique_keys)
        )

    def state_from_arrays(self, arrays: Mapping[str, np.ndarray]) -> CountsState:
        """Convert per-agent struct-of-arrays planes into a counts state.

        Accepts the plane layout of the protocol's
        :class:`~repro.engine.batch_engine.VectorizedProtocol` (extra planes
        that are not kernel fields — tick counters and the like — are
        ignored), so initial configurations built for the batched/ensemble
        engines run unchanged on the counts engine.  Field values must be
        integral and inside the declared bounds.
        """
        columns: dict[str, np.ndarray] = {}
        length = None
        for name, cardinality in self.fields:
            if name not in arrays:
                raise ConfigurationError(
                    f"initial arrays are missing state plane {name!r} "
                    f"required by the {self.name!r} counts kernel"
                )
            plane = np.asarray(arrays[name])
            values = np.asarray(plane, dtype=np.int64)
            if not np.array_equal(values, np.asarray(plane, dtype=np.float64)):
                raise ConfigurationError(
                    f"state plane {name!r} holds non-integral values; the "
                    "counts engine enumerates integer state lattices only"
                )
            if values.size and (values.min() < 0 or values.max() >= cardinality):
                raise ConfigurationError(
                    f"state plane {name!r} leaves the kernel's value range "
                    f"[0, {cardinality}): min={values.min()}, max={values.max()}"
                )
            columns[name] = values
            if length is None:
                length = values.shape[0]
            elif values.shape[0] != length:
                raise ConfigurationError("initial state planes have unequal lengths")
        assert length is not None
        return self.state_from_columns(columns, np.ones(length, dtype=np.int64))

    def merge_into(
        self, state: CountsState, extra_keys: np.ndarray, extra_counts: np.ndarray
    ) -> None:
        state.keys, state.counts = merge_counts(
            state.keys, state.counts, extra_keys, extra_counts
        )
        state.columns = self.unpack(state.keys)

    # ------------------------------------------------------------- transition

    @abc.abstractmethod
    def transition(
        self,
        u: dict[str, np.ndarray],
        v: dict[str, np.ndarray],
        multiplicity: np.ndarray,
        rng: RandomSource,
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Cell-level transition on gathered initiator/responder fields.

        ``u`` / ``v`` hold one entry per (initiator-state, responder-class)
        cell; ``multiplicity[j]`` is how many such ordered interactions the
        sub-batch drew.  Returns ``(u_fields, u_mult)``: the
        post-interaction initiator states with multiplicities.  Cells may
        expand — GRV outcomes split a cell into sub-cells — as long as
        ``u_mult`` sums to ``multiplicity``'s total.
        """

    def apply(
        self,
        state: CountsState,
        initiator_idx: np.ndarray,
        responder_idx: np.ndarray,
        pair_counts: np.ndarray,
        responder_columns: Mapping[str, np.ndarray],
        rng: RandomSource,
    ) -> None:
        responder_fields = (
            self.responder_fields
            if self.responder_fields is not None
            else tuple(name for name, _ in self.fields)
        )
        u = {
            name: state.columns[name][initiator_idx] for name, _ in self.fields
        }
        v = {name: responder_columns[name][responder_idx] for name in responder_fields}
        u_new, u_mult = self.transition(u, v, pair_counts, rng)

        np.subtract.at(state.counts, initiator_idx, pair_counts)
        self.merge_into(state, self.pack(u_new), np.asarray(u_mult, dtype=np.int64))


class CountsSimulator(Engine):
    """Execution engine over the multiset (count-vector) population state.

    Parameters
    ----------
    kernel:
        The protocol's :class:`CountsKernel` (see
        :func:`repro.engine.registry.counts_kernel_for` for the scalar
        protocol lookup).
    n:
        Initial population size.
    rng / seed:
        Random source (or a seed to build one).
    resize_schedule:
        ``(parallel_time, target_size)`` pairs, validated and applied by
        :class:`~repro.engine.api.Engine` through :meth:`resize_to`.
    sub_batches:
        Number of synchronous sub-batches per parallel time step, matching
        the batched engine's fidelity knob: responder distributions are
        re-snapshotted between sub-batches.
    initial_state:
        Optional pre-built :class:`CountsState` (consumed, not copied) for
        non-default initial configurations; must total ``n``.
    """

    name = "counts"

    def __init__(
        self,
        kernel: CountsKernel,
        n: int,
        *,
        rng: RandomSource | None = None,
        seed: int | None = None,
        resize_schedule: Iterable[tuple[int, int]] = (),
        sub_batches: int = 8,
        initial_state: CountsState | None = None,
    ) -> None:
        super().__init__(resize_schedule)
        if not isinstance(kernel, CountsKernel):
            raise ConfigurationError(
                f"CountsSimulator needs a CountsKernel, got {type(kernel).__name__}"
            )
        if n < 2:
            raise ConfigurationError(f"population size must be at least 2, got {n}")
        if sub_batches < 1:
            raise ConfigurationError(f"sub_batches must be >= 1, got {sub_batches}")
        self.kernel = kernel
        self.rng = rng if rng is not None else RandomSource.from_seed(seed)
        self.sub_batches = sub_batches
        self.state = (
            kernel.initial_state(n, self.rng) if initial_state is None else initial_state
        )
        if self.state.total() != n:
            raise ConfigurationError(
                f"initial counts total {self.state.total()}, expected {n}"
            )
        if (self.state.counts < 0).any():
            raise ConfigurationError("initial counts must be non-negative")
        #: Largest number of simultaneously occupied states seen so far —
        #: the |Q| that prices each step; reported in run metadata.
        self.peak_states = self.state.num_states

    # ------------------------------------------------------------------- size

    @property
    def size(self) -> int:
        return self.state.total()

    def outputs(self) -> np.ndarray:
        """Current per-agent outputs, materialised (O(n) memory!).

        Exists for the shared engine contract and small-n cross-checks;
        snapshot statistics never materialise this — they aggregate the
        per-state outputs with :func:`weighted_quantiles` instead.
        """
        values = np.asarray(self.kernel.output_values(self.state), dtype=float)
        return np.repeat(values, self.state.counts)

    # ------------------------------------------------------------------ resize

    def resize_to(self, target: int) -> None:
        """Resize the population to ``target`` agents.

        Shrinking keeps a uniformly random sub-multiset (the paper's
        decimation adversary, as one hypergeometric draw on the counts);
        growing re-injects fresh agents in the protocol's initial state.
        """
        if target < 2:
            raise ConfigurationError(f"resize target must be at least 2, got {target}")
        current = self.size
        if target == current:
            return
        if target < current:
            self.state.counts = multiset_sample(
                self.rng.generator, self.state.counts, target
            )
            self.state.compact()
        else:
            self.kernel.grow(self.state, target - current, self.rng)

    # ------------------------------------------------------------------- step

    def _advance_one_parallel_step(self) -> None:
        self.step_parallel_round()

    def step_parallel_round(self) -> None:
        """Execute one parallel time step: ``n`` interactions in sub-batches."""
        n = self.size
        if n < 2:
            raise EmptyPopulationError("population has fewer than two agents")
        chunk = max(1, n // self.sub_batches)
        remaining = n
        while remaining > 0:
            batch = min(chunk, remaining)
            self._run_sub_batch(batch)
            remaining -= batch
        self.parallel_time += 1
        self.interactions_executed += n
        self.peak_states = max(self.peak_states, self.state.num_states)

    def _run_sub_batch(self, batch: int) -> None:
        state = self.state
        generator = self.rng.generator
        initiators = multiset_sample(generator, state.counts, batch)
        occupied = np.flatnonzero(initiators)
        if occupied.size == 0:
            return
        initiator_idx, responder_idx, pair_counts, responder_columns = (
            self._pair_with_replacement(initiators, occupied)
        )
        if pair_counts.size == 0:
            return
        self.kernel.apply(
            state, initiator_idx, responder_idx, pair_counts, responder_columns, self.rng
        )
        state.compact()

    def _pair_with_replacement(
        self, initiators: np.ndarray, occupied: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Ordered pair counts: i.i.d. responders.

        Responders are drawn from the batch-start state distribution —
        exactly the batched engine's responder snapshot.  (Like that
        engine's ``ordered_pairs`` modulo the 1/n self-pairing term, which
        both treatments leave statistically indistinguishable.)  The draw
        is one vectorised multinomial over the kernel's responder classes,
        taken in descending-probability order (see the module docstring);
        the drawn columns map back through the permutation.
        """
        state = self.state
        class_id, class_columns = self.kernel.responder_view(state)
        num_classes = int(class_id.max()) + 1 if class_id.size else 0
        class_counts = np.bincount(
            class_id, weights=state.counts.astype(np.float64), minlength=num_classes
        )
        probabilities = class_counts / class_counts.sum()
        order = np.argsort(-probabilities, kind="stable")
        pair_table = self.rng.generator.multinomial(
            initiators[occupied], probabilities[order]
        )
        cells = np.flatnonzero(pair_table)
        row, col = np.divmod(cells, num_classes)
        return occupied[row], order[col], pair_table.ravel()[cells], (
            class_columns
            if class_columns is not None
            else {name: column for name, column in state.columns.items()}
        )

    # ------------------------------------------------------------ checkpoints

    def _state_payload(self, *, copy: bool = True) -> dict[str, Any]:
        dup = (lambda arr: arr.copy()) if copy else (lambda arr: arr)
        return {
            "keys": dup(self.state.keys),
            "counts": dup(self.state.counts),
            "columns": {name: dup(col) for name, col in self.state.columns.items()},
            "peak_states": int(self.peak_states),
            "kernel_ticks": self.kernel.tick_total(),
        }

    def _restore_payload(self, state: dict[str, Any]) -> None:
        columns = state.get("columns")
        if not isinstance(columns, dict) or set(columns) != set(self.state.columns):
            found = sorted(columns) if isinstance(columns, dict) else columns
            raise CheckpointError(
                f"checkpoint state columns {found!r} do not match this "
                f"kernel's columns {sorted(self.state.columns)!r}"
            )
        self.state = CountsState(
            keys=np.array(state["keys"], copy=True),
            counts=np.array(state["counts"], copy=True),
            columns={name: np.array(col, copy=True) for name, col in columns.items()},
        )
        self.peak_states = int(state["peak_states"])
        self.kernel.restore_tick_total(state.get("kernel_ticks"))

    # -------------------------------------------------------------- snapshots

    def _take_snapshot(self) -> EngineSnapshot:
        minimum, median, maximum = weighted_quantiles(
            self.kernel.output_values(self.state), self.state.counts
        )
        return EngineSnapshot(
            parallel_time=self.parallel_time,
            population_size=self.size,
            minimum=minimum,
            median=median,
            maximum=maximum,
        )

    def _build_result(
        self, snapshots: list[EngineSnapshot], stopped_early: bool
    ) -> RunResult:
        metadata: dict[str, Any] = {
            "protocol": self.kernel.describe(),
            "engine": self.name,
            "sub_batches": self.sub_batches,
            "occupied_states": self.state.num_states,
            "peak_states": self.peak_states,
        }
        ticks = self.kernel.tick_total()
        if ticks is not None:
            metadata["total_ticks"] = ticks
        return RunResult(
            parallel_time=self.parallel_time,
            interactions=self.interactions_executed,
            final_size=self.size,
            stopped_early=stopped_early,
            snapshots=snapshots,
            metadata=metadata,
        )
