"""The vectorised engine: every trial of an experiment in one stacked pass.

Every data point in the paper aggregates 96 independent runs.  Looping
those trials one at a time in Python makes the per-call NumPy overhead of
many small batches dominate the wall clock at quick/default preset sizes.

:class:`EnsembleSimulator` removes that loop.  It holds the state of ``T``
independent trials as stacked 2-D arrays of shape ``(trials, n)`` ("struct
of 2-D arrays") and advances *all* trials per parallel step with a single
batched transition: one :meth:`repro.engine.rng.RandomSource.
ordered_pair_matrix` call draws the ``(trials, batch)`` interaction pairs of
every trial, and the protocol applies its transition to the whole stack via
:meth:`repro.engine.batch_engine.VectorizedProtocol.interact_step`, one
call per step and trial block, which by default runs
:meth:`~repro.engine.batch_engine.VectorizedProtocol.interact_ensemble` on
each sub-batch.
The registry builds it as ``"ensemble"`` (one stack per point, drawing
from one shared stream) and as ``"batched"``, whose stacks give every row
its own stream through :class:`repro.engine.rng.RowStreams`.

Within each row the semantics are the synchronous-rounds batches of
:mod:`repro.engine.batch_engine` — sub-batch responder snapshots,
last-writer-wins initiator updates — and rows never interact.  On a shared
stream the rows diverge through their independent slices of every draw, so
a stacked run is statistically equivalent to ``trials`` independent
one-row runs.  On :class:`~repro.engine.rng.RowStreams` each row makes
exactly the draws a one-row engine on its stream makes, so every row is
bit-identical to that one-row run.
Snapshots record per-trial statistics (min/median/max per row, one sort
of the stacked outputs), so each trial still yields its own
:class:`repro.engine.api.RunResult`-compatible series via
:attr:`EnsembleRunResult.trial_results`.

This module is the only one that knows the stacked layout.  Once per step
and trial block it builds flat views of the block's planes
(:func:`flat_planes`) and the ``np.intp`` flat coordinates of the step's
pairs (:func:`flat_pair_indices`) and hands them to one
:meth:`~repro.engine.batch_engine.VectorizedProtocol.interact_step` call;
every kernel call of that step gets those views and a column slice of
those coordinates, so the kernels index flat planes and never rebuild
either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.engine.api import ArrayStateEngine, EngineSnapshot, RunResult, matrix_quantiles, quantiles
from repro.engine.batch_engine import VectorizedProtocol
from repro.engine.errors import CheckpointError, ConfigurationError
from repro.engine.rng import RandomSource, RowStreams

__all__ = ["EnsembleRunResult", "EnsembleSimulator", "flat_pair_indices", "flat_planes"]


def flat_planes(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Flat *views* of a block of stacked ``(rows, n)`` state planes.

    The kernels index the block through flat coordinates (``row * n +
    slot``, see :func:`flat_pair_indices`), which is substantially faster
    than broadcast 2-D fancy indexing, but only safe on views: a silent
    copy would discard every write.  The engine keeps its state
    C-contiguous (and a row slice of a C-contiguous plane is one too); this
    guard turns any violation into a loud error.
    """
    flat = {}
    for key, arr in arrays.items():
        if not arr.flags.c_contiguous:
            raise ConfigurationError(
                "ensemble state arrays must be C-contiguous for flat indexing; "
                f"plane {key!r} is not (pass np.ascontiguousarray data)"
            )
        flat[key] = arr.reshape(-1)
    return flat


def flat_pair_indices(
    initiators: np.ndarray, responders: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat coordinates (``row * n + slot``) of ``(rows, count)`` pair matrices.

    Row ``r`` of the results addresses row ``r`` of the ``(rows, n)``
    planes seen through :func:`flat_planes`; the results keep the
    ``(rows, count)`` shape, so a column slice is one sub-batch of every
    row, and its ``ravel()`` lists the lanes in row-major ``(row, batch)``
    order, the order broadcast 2-D fancy indexing visits them in.  So
    last-writer-wins scatters and ``np.maximum.at`` merges resolve exactly
    as they would on the 2-D planes.

    Both results are ``np.intp`` for int32 or int64 pair matrices: the
    row offsets are built in NumPy's native index type, so the kernels'
    gathers and scatters index without a per-call cast, and a stack of
    ``rows * n >= 2**31`` slots cannot wrap int32 coordinates to negative
    (which ``take`` would silently read from the end of the plane).
    """
    offsets = np.arange(0, initiators.shape[0] * n, n, dtype=np.intp)[:, None]
    return np.add(initiators, offsets), np.add(responders, offsets)


@dataclass
class EnsembleRunResult(RunResult):
    """Outcome of one stacked ensemble run.

    The inherited :class:`repro.engine.api.RunResult` fields describe the
    ensemble as a whole: ``snapshots`` pools the per-trial statistics
    (minimum of the trial minima, median of the trial medians, maximum of
    the trial maxima — the paper's aggregation over its 96 runs),
    ``final_size`` is the per-trial population size, and ``interactions``
    counts the work across all trials.

    Attributes
    ----------
    trials:
        Number of stacked trials.
    trial_results:
        One :class:`RunResult` per trial, each carrying that trial's own
        snapshot series — the same shape a looped one-row run produces.
    """

    trials: int = 0
    trial_results: list[RunResult] = field(default_factory=list)


class EnsembleSimulator(ArrayStateEngine):
    """Vectorised engine running all trials of an experiment at once.

    Parameters
    ----------
    protocol:
        A :class:`repro.engine.batch_engine.VectorizedProtocol`; its
        ``interact_step`` advances a block of the stack by one step.
    n:
        Population size of every trial.
    trials:
        Number of independent trials stacked into the engine.
    rng / seed:
        Random source (or a seed to build one).  With a
        :class:`~repro.engine.rng.RandomSource` all trials share one
        stream and independence across rows comes from each row consuming
        its own slice of every ``(trials, batch)`` draw.  With
        :class:`~repro.engine.rng.RowStreams` (one source per trial) each
        row draws from its own stream, exactly as a one-row engine on that
        stream does.
    resize_schedule:
        Optional ``(parallel_time, target_size)`` pairs, validated and
        applied by :class:`~repro.engine.api.Engine` to *every* trial
        through :meth:`resize_to`.
    initial_arrays:
        Optional pre-built state: 1-D arrays of length ``n`` are tiled
        across all trials (every trial starts from the same configuration,
        e.g. Fig. 5's fixed initial estimate); 2-D ``(trials, n)`` arrays
        are used as-is (copied) for per-trial configurations.
    sub_batches:
        Target number of sub-batches per parallel time step.  A step's
        ``n`` pairs are cut into chunks of ``max(1, n // sub_batches)``
        pairs, so a step makes up to ``2 * sub_batches - 1`` kernel calls
        (fig3's ``n = 10`` point makes 10 with the default 8).  Larger
        values refresh the responder snapshot more often and bring the
        dynamics closer to the exact sequential scheduler at a modest cost;
        the default of 8 keeps the round length of the dynamic size counting
        protocol within a few percent of the exact engine (see
        ``tests/test_engine_equivalence.py``).
    """

    name = "ensemble"

    def __init__(
        self,
        protocol: VectorizedProtocol,
        n: int,
        *,
        trials: int = 1,
        rng: RandomSource | None = None,
        seed: int | None = None,
        resize_schedule: Iterable[tuple[int, int]] = (),
        initial_arrays: dict[str, np.ndarray] | None = None,
        sub_batches: int = 8,
    ) -> None:
        if trials < 1:
            raise ConfigurationError(f"trials must be at least 1, got {trials}")
        if sub_batches < 1:
            raise ConfigurationError(f"sub_batches must be at least 1, got {sub_batches}")
        if isinstance(rng, RowStreams) and len(rng) != trials:
            raise ConfigurationError(
                f"{len(rng)} row streams for an engine of {trials} trials"
            )
        self.trials = int(trials)
        self.sub_batches = int(sub_batches)
        self._snapshot_times: list[int] = []
        self._snapshot_sizes: list[int] = []
        self._trial_minimum: list[np.ndarray] = []
        self._trial_median: list[np.ndarray] = []
        self._trial_maximum: list[np.ndarray] = []
        #: Block-steps of the current run() whose interact_step ran a quiet rule.
        self._quiet_steps = 0
        super().__init__(protocol, n, rng=rng, seed=seed, resize_schedule=resize_schedule)
        self.arrays = self._build_initial_arrays(n, initial_arrays)
        self._validate_arrays(n)

    # ------------------------------------------------------------------- state

    def _build_initial_arrays(
        self, n: int, initial_arrays: dict[str, np.ndarray] | None
    ) -> dict[str, np.ndarray]:
        if initial_arrays is None:
            return self._stacked_fresh_arrays(n)
        stacked: dict[str, np.ndarray] = {}
        for key, value in initial_arrays.items():
            arr = np.asarray(value)
            if arr.ndim == 1:
                stacked[key] = np.tile(arr, (self.trials, 1))
            elif arr.ndim == 2 and arr.shape[0] == self.trials:
                # Force C order: the step loop hands the kernels flat views.
                stacked[key] = np.array(arr, copy=True, order="C")
            else:
                raise ConfigurationError(
                    f"initial array {key!r} must be 1-D of length n or 2-D of "
                    f"shape (trials={self.trials}, n), got shape {arr.shape}"
                )
        return self._apply_state_dtypes(self.protocol, stacked)

    def _stacked_fresh_arrays(self, n: int) -> dict[str, np.ndarray]:
        """Stack one fresh ``initial_arrays`` draw per trial into (trials, n)."""
        rows = [
            self.protocol.initial_arrays(n, source)
            for source in self.rng.row_sources(self.trials)
        ]
        return self._apply_state_dtypes(
            self.protocol, {key: np.stack([row[key] for row in rows]) for key in rows[0]}
        )

    #: Narrowing guard for :meth:`_apply_state_dtypes`: initial values above
    #: this magnitude could outgrow a narrow float plane's exact-integer
    #: range once scaled by protocol constants, so the overrides are skipped.
    _NARROW_VALUE_LIMIT = 2.0**16

    @classmethod
    def _apply_state_dtypes(
        cls, protocol: VectorizedProtocol, stacked: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Apply the protocol's ensemble dtype overrides (e.g. float32 planes).

        The overrides are an optimisation, never a semantics change: if any
        plane's initial values would not survive the narrowing cast exactly
        (or are large enough that protocol-scaled successors might not),
        every override is skipped and the protocol's own dtypes stay.
        """
        overrides = getattr(protocol, "ensemble_state_dtypes", None)
        if not overrides:
            return stacked
        narrowed = dict(stacked)
        for key, target in overrides.items():
            if key not in stacked:
                continue
            arr = stacked[key]
            cast = arr.astype(target, copy=False)
            if not np.array_equal(cast.astype(arr.dtype, copy=False), arr):
                return stacked
            if arr.size and np.issubdtype(np.dtype(target), np.floating):
                if float(np.abs(arr).max()) > cls._NARROW_VALUE_LIMIT:
                    return stacked
            narrowed[key] = cast
        return narrowed

    def _validate_arrays(self, n: int) -> None:
        shapes = {key: arr.shape for key, arr in self.arrays.items()}
        if not shapes:
            raise ConfigurationError("protocol returned no state arrays")
        if len(set(shapes.values())) != 1:
            raise ConfigurationError(f"state arrays have inconsistent shapes: {shapes}")
        actual = next(iter(shapes.values()))
        if actual != (self.trials, n):
            raise ConfigurationError(
                f"state arrays have shape {actual}, expected {(self.trials, n)}"
            )

    @property
    def size(self) -> int:
        """Population size of each trial (rows always stay the same length)."""
        return next(iter(self.arrays.values())).shape[1]

    # ------------------------------------------------------------ checkpoints

    def _state_payload(self, *, copy: bool = True) -> dict:
        # The per-run snapshot accumulators are deliberately absent: they
        # are cleared at every run() start, so checkpoints must be taken
        # between run() calls (the segmented executor stitches the series).
        payload = super()._state_payload(copy=copy)
        payload["trials"] = self.trials
        return payload

    def _restore_payload(self, state: dict) -> None:
        trials = state.get("trials")
        if trials != self.trials:
            raise CheckpointError(
                f"checkpoint stacks {trials!r} trials, this engine stacks {self.trials}"
            )
        super()._restore_payload(state)

    # ------------------------------------------------------------------ resize

    def resize_to(self, target: int) -> None:
        """Resize every trial's population to ``target`` agents.

        Shrinking keeps an independent uniformly random subset per row (the
        paper's decimation adversary, applied to each trial separately);
        growing appends fresh agents in the protocol's initial state, drawn
        per row.
        """
        if target < 2:
            raise ConfigurationError(f"resize target must be at least 2, got {target}")
        current = self.size
        if target == current:
            return
        if target < current:
            # Per-row random subsets in one vectorised draw: rank a uniform
            # matrix along each row and keep the first `target` columns.
            keep = np.argsort(self.rng.uniform_matrix(self.trials, current), axis=1)[
                :, :target
            ]
            keep.sort(axis=1)
            for key in self.arrays:
                self.arrays[key] = np.take_along_axis(self.arrays[key], keep, axis=1)
        else:
            extra = self._stacked_fresh_arrays(target - current)
            missing = [key for key in self.arrays if key not in extra]
            if missing:
                raise ConfigurationError(
                    "initial_arrays is missing state variable(s) "
                    f"{', '.join(repr(k) for k in missing)} when growing"
                )
            for key in self.arrays:
                self.arrays[key] = np.concatenate([self.arrays[key], extra[key]], axis=1)

    # -------------------------------------------------------------------- run

    def _advance_one_parallel_step(self) -> None:
        self.step_parallel_round()

    #: Per-trial-block state budget for the cache-blocked step loop.  Large
    #: stacked states overflow L2 and turn every gather into a last-level
    #: cache miss; advancing a block of trials through all sub-batches of a
    #: step before moving on keeps each block's planes cache-resident.  1 MiB
    #: leaves L2 headroom for the batch temporaries.  It also sizes the
    #: ``batched`` engine's stacks (:meth:`stack_rows`).
    _BLOCK_STATE_BYTES = 1 << 20

    @classmethod
    def _rows_in_budget(cls, row_bytes: int, rows: int) -> int:
        """How many of ``rows`` rows of ``row_bytes`` fit the budget (at least one)."""
        return max(1, min(rows, cls._BLOCK_STATE_BYTES // max(1, row_bytes)))

    def _trial_block(self, n: int) -> int:
        """Number of trials to advance together, sized to the cache budget."""
        bytes_per_agent = sum(arr.itemsize for arr in self.arrays.values())
        return self._rows_in_budget(n * bytes_per_agent, self.trials)

    @classmethod
    def stack_rows(
        cls,
        protocol: VectorizedProtocol,
        n: int,
        rows: int,
        initial_arrays: dict[str, np.ndarray] | None = None,
    ) -> int:
        """How many of ``rows`` trials of ``n`` agents one stack should hold.

        As many as one trial block of the cache budget holds, and at least
        one, so a stack never holds more state than one block (or one
        row).  The state's bytes per agent come from ``initial_arrays``, or
        from a two-agent probe of the protocol's initial state on a
        throwaway stream, after the ensemble dtype overrides.
        """
        if initial_arrays is None:
            initial_arrays = protocol.initial_arrays(2, RandomSource.from_seed(0))
        planes = cls._apply_state_dtypes(
            protocol, {key: np.asarray(value) for key, value in initial_arrays.items()}
        )
        return cls._rows_in_budget(n * sum(arr.itemsize for arr in planes.values()), rows)

    def step_parallel_round(self) -> None:
        """Execute one parallel time step (``n`` interactions) in every trial.

        The whole step's interaction pairs are drawn in one
        ``(trials, n)`` RNG call (one call per row on
        :class:`~repro.engine.rng.RowStreams`), then trial blocks are
        advanced through the step's ``sub_batches`` column slices one block
        at a time — the responder snapshot refreshes once per sub-batch,
        the generator call count does not grow with ``sub_batches``, and
        each block's state planes stay cache-resident across its
        sub-batches.  A block's flat plane views and flat pair coordinates
        are built once and handed, with the sub-batch width, to one
        :meth:`~repro.engine.batch_engine.VectorizedProtocol.interact_step`
        call, which applies the sub-batches; the block-steps it reports as
        quiet are counted into the result's ``metadata["quiet_steps"]``.
        """
        n = self._require_interactable()
        index_dtype = np.int32 if self.trials * n < 2**31 else np.int64
        initiators, responders = self.rng.ordered_pair_matrix(
            n, self.trials, n, dtype=index_dtype
        )
        chunk = max(1, n // self.sub_batches)
        block = self._trial_block(n)
        for g0 in range(0, self.trials, block):
            g1 = min(g0 + block, self.trials)
            planes = flat_planes({key: arr[g0:g1] for key, arr in self.arrays.items()})
            flat_u, flat_v = flat_pair_indices(initiators[g0:g1], responders[g0:g1], n)
            block_rng = self.rng.row_block(g0, g1)
            if self.protocol.interact_step(planes, flat_u, flat_v, chunk, block_rng):
                self._quiet_steps += 1
        self.interactions_executed += n * self.trials
        self.parallel_time += 1

    # -------------------------------------------------------------- snapshots

    def _on_run_start(self) -> None:
        self._quiet_steps = 0
        self._snapshot_times.clear()
        self._snapshot_sizes.clear()
        self._trial_minimum.clear()
        self._trial_median.clear()
        self._trial_maximum.clear()

    def _take_snapshot(self) -> EngineSnapshot:
        # Keep the protocol's output dtype (e.g. float32 planes) through the
        # sort; the stored per-trial statistics are tiny either way.
        outputs = np.asarray(self.protocol.output_array(self.arrays))
        minima, medians, maxima = matrix_quantiles(outputs)
        self._snapshot_times.append(self.parallel_time)
        self._snapshot_sizes.append(self.size)
        self._trial_minimum.append(minima)
        self._trial_median.append(medians)
        self._trial_maximum.append(maxima)
        return EngineSnapshot(
            parallel_time=self.parallel_time,
            population_size=self.size,
            minimum=float(minima.min()),
            median=quantiles(medians)[1],
            maximum=float(maxima.max()),
        )

    def outputs(self) -> np.ndarray:
        """Current per-agent outputs as a ``(trials, n)`` matrix."""
        return np.asarray(self.protocol.output_array(self.arrays), dtype=float)

    # ----------------------------------------------------------------- result

    def _build_result(
        self, snapshots: list[EngineSnapshot], stopped_early: bool
    ) -> EnsembleRunResult:
        per_trial_interactions = self.interactions_executed // self.trials
        trial_results: list[RunResult] = []
        for trial in range(self.trials):
            trial_snapshots = [
                EngineSnapshot(
                    parallel_time=self._snapshot_times[i],
                    population_size=self._snapshot_sizes[i],
                    minimum=float(self._trial_minimum[i][trial]),
                    median=float(self._trial_median[i][trial]),
                    maximum=float(self._trial_maximum[i][trial]),
                )
                for i in range(len(self._snapshot_times))
            ]
            trial_results.append(
                RunResult(
                    parallel_time=self.parallel_time,
                    interactions=per_trial_interactions,
                    final_size=self.size,
                    stopped_early=stopped_early,
                    snapshots=trial_snapshots,
                    metadata={
                        "protocol": self.protocol.describe(),
                        "engine": self.name,
                        "trial": trial,
                    },
                )
            )
        return EnsembleRunResult(
            parallel_time=self.parallel_time,
            interactions=self.interactions_executed,
            final_size=self.size,
            stopped_early=stopped_early,
            snapshots=snapshots,
            metadata={
                "protocol": self.protocol.describe(),
                "engine": self.name,
                "trials": self.trials,
                "quiet_steps": self._quiet_steps,
            },
            trials=self.trials,
            trial_results=trial_results,
        )
