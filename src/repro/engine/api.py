"""Unified engine API shared by all execution engines.

Every engine in this package — the exact sequential
:class:`repro.engine.simulator.Simulator`, the approximate vectorised
:class:`repro.engine.ensemble_engine.EnsembleSimulator` and the
count-vector :class:`repro.engine.counts_engine.CountsSimulator` —
implements the same contract:

``run(parallel_time, stop_when=..., snapshot_every=...) -> RunResult``

with a shared :class:`RunResult`/:class:`EngineSnapshot` vocabulary,
snapshot hooks for observers, and one resize schedule: ``(parallel_time,
target)`` pairs, validated by :func:`resize_events` and applied at
snapshot granularity.  Experiment code can therefore select an engine by
name (see :mod:`repro.engine.registry`) and post-process the result
without knowing which engine produced it.

The run loop itself lives here as a template method: subclasses provide
``_advance_one_parallel_step`` / ``resize_to`` / ``_take_snapshot`` /
``_build_result`` and inherit the horizon bookkeeping, the resize
schedule, early stopping, and hook dispatch.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.engine.errors import (
    CheckpointError,
    ConfigurationError,
    EmptyPopulationError,
    InvalidScheduleError,
)
from repro.engine.rng import RandomSource

__all__ = [
    "EngineSnapshot",
    "RunResult",
    "Engine",
    "ArrayStateEngine",
    "quantiles",
    "matrix_quantiles",
    "resize_events",
]


def quantiles(values: Sequence[float] | np.ndarray) -> tuple[float, float, float]:
    """Return (min, median, max) of a non-empty sequence.

    The single definition behind every reported (minimum, median, maximum)
    triple — engine snapshots and recorder rows alike — so the statistics
    agree across engines down to NaN propagation.

    This runs on every snapshot of every engine, so all three statistics
    come from one ``np.sort`` (NumPy's vectorised sort, faster than a
    multi-pivot ``np.partition`` on the few-valued outputs the engines
    produce).  NaN sorts last, so the last element doubles as the NaN
    check.  The results are identical to ``(arr.min(), np.median(arr),
    arr.max())``, including the all-NaN answer when any element is NaN.
    """
    arr = np.sort(np.asarray(values, dtype=float).ravel())
    size = arr.size
    if size == 0:
        raise ValueError("quantiles() requires a non-empty sequence")
    if np.isnan(arr[size - 1]):
        # min/max/median all propagate NaN under NumPy semantics.
        nan = float("nan")
        return nan, nan, nan
    mid = size // 2
    if size % 2:
        median = float(arr[mid])
    else:
        median = 0.5 * (float(arr[mid - 1]) + float(arr[mid]))
    return float(arr[0]), median, float(arr[size - 1])


def matrix_quantiles(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (min, median, max) of a 2-D ``(trials, n)`` matrix.

    The ensemble engine's counterpart of :func:`quantiles`: one row-wise
    ``np.sort`` of the stacked outputs yields the per-trial statistics of
    every row at once.  NaN sorts last, so a row whose last element is NaN
    holds one, and it reports NaN for all three statistics, matching
    ``np.min`` / ``np.median`` / ``np.max`` along the row axis.  The input
    dtype is preserved through the sort (a float32 stack is sorted as
    float32), so narrow ensemble states never pay a full-width upcast per
    snapshot.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[1] == 0:
        raise ValueError(f"matrix_quantiles() needs a non-empty 2-D matrix, got shape {m.shape}")
    n = m.shape[1]
    mid = n // 2
    ordered = np.sort(m, axis=1)
    if n % 2:
        medians = ordered[:, mid].copy()
    else:
        medians = 0.5 * (ordered[:, mid - 1] + ordered[:, mid])
    minima = ordered[:, 0].copy()
    maxima = ordered[:, n - 1].copy()
    has_nan = np.isnan(maxima)
    if has_nan.any():
        minima[has_nan] = np.nan
        medians[has_nan] = np.nan
        maxima[has_nan] = np.nan
    return minima, medians, maxima


@dataclass(frozen=True)
class EngineSnapshot:
    """Aggregate statistics of the per-agent outputs at one snapshot.

    ``minimum`` / ``median`` / ``maximum`` are taken over the numeric
    outputs of all agents; engines whose protocol reports non-numeric
    outputs record ``nan`` for the three statistics while keeping the
    ``parallel_time`` / ``population_size`` columns intact.

    This is also the row type of :class:`repro.engine.recorder.
    EstimateRecorder` (under its historical name ``SnapshotStats``), so a
    recorder row and an engine snapshot are the same object shape.
    """

    parallel_time: int
    population_size: int
    minimum: float
    median: float
    maximum: float

    @property
    def true_log_n(self) -> float:
        """log2 of the population size at this snapshot."""
        return math.log2(self.population_size) if self.population_size > 0 else float("nan")


@dataclass
class RunResult:
    """Outcome of one engine run, shared by all engines.

    Attributes
    ----------
    parallel_time:
        Parallel time reached at the end of the run.
    interactions:
        Total number of pairwise interactions executed.
    final_size:
        Population size at the end of the run.
    stopped_early:
        Whether a ``stop_when`` condition fired before the horizon.
    snapshots:
        Per-snapshot output statistics (one row per snapshot taken).
    metadata:
        Free-form dictionary (protocol description, engine name, ...).
    """

    parallel_time: int = 0
    interactions: int = 0
    final_size: int = 0
    stopped_early: bool = False
    snapshots: list[EngineSnapshot] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def series(self) -> dict[str, list[float]]:
        """Column-oriented view of :attr:`snapshots`."""
        return {
            "parallel_time": [float(s.parallel_time) for s in self.snapshots],
            "population_size": [float(s.population_size) for s in self.snapshots],
            "minimum": [s.minimum for s in self.snapshots],
            "median": [s.median for s in self.snapshots],
            "maximum": [s.maximum for s in self.snapshots],
        }


def resize_events(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Validate a resize schedule and return its events in time order.

    A schedule is ``(parallel_time, target)`` pairs: at the first snapshot
    at or after ``parallel_time`` the population is resized to ``target``
    agents.  Every engine takes its schedule through this one function, so
    they all reject the same schedules with :class:`InvalidScheduleError`
    (a :class:`ConfigurationError`): a negative time, a target below two
    agents, or two events at the same time (their order would be
    arbitrary).  Pairs given out of order are sorted.
    """
    events = sorted(((int(t), int(target)) for t, target in pairs), key=lambda e: e[0])
    for time, target in events:
        if time < 0:
            raise InvalidScheduleError(f"resize time must be non-negative, got {time}")
        if target < 2:
            raise InvalidScheduleError(f"resize target must be at least 2, got {target}")
    times = [time for time, _ in events]
    if len(set(times)) != len(times):
        raise InvalidScheduleError(f"resize events must have distinct times, got {times}")
    return tuple(events)


class Engine(abc.ABC):
    """Abstract base class for all execution engines.

    Subclasses drive the simulation through four hooks — advance one
    parallel time step, resize the population, take one snapshot, and
    build the final result — while :meth:`run` owns the horizon
    bookkeeping, the resize schedule, early stopping, and snapshot-hook
    dispatch shared by every engine.

    ``resize_schedule`` is ``(parallel_time, target)`` pairs, validated by
    :func:`resize_events`; each event is applied once, through
    :meth:`resize_to`, just before the first snapshot at or after its time.
    """

    #: Engine name used in run metadata (``"sequential"`` / ``"batched"`` / ...).
    name: str = "engine"

    def __init__(self, resize_schedule: Iterable[tuple[int, int]] = ()) -> None:
        self.parallel_time: int = 0
        self.interactions_executed: int = 0
        self._snapshot_hooks: list[Callable[["Engine", EngineSnapshot], None]] = []
        self._resize_events = resize_events(resize_schedule)
        self._resize_cursor = 0

    # ------------------------------------------------------------------ hooks

    def add_snapshot_hook(self, hook: Callable[["Engine", EngineSnapshot], None]) -> None:
        """Register an observer called as ``hook(engine, snapshot)`` per snapshot.

        This is the engine-agnostic observation channel; the sequential
        engine additionally supports the richer
        :class:`repro.engine.recorder.Recorder` interface, which sees the
        full population.
        """
        self._snapshot_hooks.append(hook)

    # ------------------------------------------------------------------- size

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Current population size."""

    @abc.abstractmethod
    def outputs(self) -> Sequence[Any]:
        """Current per-agent protocol outputs."""

    def resize_to(self, target: int) -> None:
        """Resize the population to ``target`` agents.

        Shrinking keeps a uniformly random subset of the agents (the
        paper's decimation adversary); growing adds agents in the
        protocol's initial state.  Every built-in engine implements it.
        """
        raise ConfigurationError(f"engine {self.name!r} cannot resize its population")

    def _apply_resizes(self) -> None:
        """Apply every scheduled resize that is due at the current time."""
        events = self._resize_events
        while (
            self._resize_cursor < len(events)
            and events[self._resize_cursor][0] <= self.parallel_time
        ):
            _, target = events[self._resize_cursor]
            self._resize_cursor += 1
            self.resize_to(target)

    # -------------------------------------------------------------------- run

    def run(
        self,
        parallel_time: int,
        *,
        stop_when: Callable[..., bool] | None = None,
        snapshot_every: int = 1,
    ) -> RunResult:
        """Run for ``parallel_time`` parallel time steps.

        Parameters
        ----------
        parallel_time:
            Horizon in parallel time units (each unit is ``n`` interactions
            at the current population size ``n``).
        stop_when:
            Optional early-stop predicate, called as
            ``stop_when(engine, snapshot)`` after every snapshot.
        snapshot_every:
            Take a snapshot (after applying the resizes that are due, and
            before notifying the observers) every this many parallel time
            steps.
        """
        if parallel_time < 0:
            raise ConfigurationError(
                f"parallel_time must be non-negative, got {parallel_time}"
            )
        if snapshot_every < 1:
            raise ConfigurationError(f"snapshot_every must be >= 1, got {snapshot_every}")

        self._on_run_start()
        snapshots: list[EngineSnapshot] = []
        stopped_early = False
        target = self.parallel_time + parallel_time
        while self.parallel_time < target:
            steps = min(snapshot_every, target - self.parallel_time)
            for _ in range(steps):
                self._advance_one_parallel_step()
            self._apply_resizes()
            snapshot = self._take_snapshot()
            snapshots.append(snapshot)
            for hook in self._snapshot_hooks:
                hook(self, snapshot)
            if stop_when is not None and stop_when(self, snapshot):
                stopped_early = True
                break
        self._on_run_finish()
        return self._build_result(snapshots, stopped_early)

    # ------------------------------------------------------------ checkpoints

    def checkpoint_payload(self, *, copy: bool = True) -> dict[str, Any]:
        """In-memory checkpoint of the engine's complete mutable state.

        The payload captures everything a freshly constructed, identically
        configured engine needs to continue the run bit-identically: the
        run-loop counters, the resize schedule's position, the RNG
        bit-generator state, and the engine-specific state from
        :meth:`_state_payload` (population, state planes, ...).  Persist it with
        :meth:`save_checkpoint`, or embed it in a larger artifact (the
        sharded executor stores one per shard).

        With ``copy=False`` the payload *aliases* live engine state instead
        of snapshotting it — it is only valid until the engine advances
        again, so it must be serialized (or discarded) first.  The sharded
        executor uses this to keep checkpoint cadence cheap: the payload is
        pickled to disk immediately, and pickling makes its own copy.
        """
        return {
            "engine": self.name,
            "parallel_time": int(self.parallel_time),
            "interactions_executed": int(self.interactions_executed),
            "resize_cursor": int(self._resize_cursor),
            "rng_state": self._rng_checkpoint_state(),
            "state": self._state_payload(copy=copy),
        }

    def apply_checkpoint_payload(self, payload: dict[str, Any]) -> None:
        """Restore the state captured by :meth:`checkpoint_payload`.

        ``self`` must be a freshly built engine with the *same
        configuration* (protocol, population size, schedule, trial count)
        as the one that produced the payload; the checkpoint replaces the
        mutable state, not the configuration.  Raises
        :class:`~repro.engine.errors.CheckpointError` when the payload
        belongs to a different engine kind or fails shape validation.
        """
        if not isinstance(payload, dict) or "state" not in payload:
            raise CheckpointError("malformed engine checkpoint payload")
        if payload.get("engine") != self.name:
            raise CheckpointError(
                f"checkpoint was taken on engine {payload.get('engine')!r}, "
                f"cannot restore into {self.name!r}"
            )
        self._restore_payload(payload["state"])
        self._restore_rng_checkpoint_state(payload.get("rng_state"))
        self.parallel_time = int(payload["parallel_time"])
        self.interactions_executed = int(payload["interactions_executed"])
        self._resize_cursor = int(payload["resize_cursor"])

    def save_checkpoint(self, path: Any) -> Any:
        """Write :meth:`checkpoint_payload` to ``path`` (atomic, checksummed)."""
        from repro.engine.checkpoint import write_checkpoint

        return write_checkpoint(path, self.checkpoint_payload(), kind="engine")

    def restore_checkpoint(self, path: Any) -> None:
        """Restore from a file written by :meth:`save_checkpoint`."""
        from repro.engine.checkpoint import read_checkpoint

        self.apply_checkpoint_payload(read_checkpoint(path, kind="engine"))

    def _rng_checkpoint_state(self) -> Any:
        # ``state`` of a RandomSource, or one state per row of RowStreams.
        rng = getattr(self, "rng", None)
        return None if rng is None else rng.state

    def _restore_rng_checkpoint_state(self, state: Any) -> None:
        if state is None:
            return
        rng = getattr(self, "rng", None)
        if rng is None:
            raise CheckpointError(
                f"checkpoint carries RNG state but engine {self.name!r} has no rng"
            )
        try:
            rng.state = state
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint RNG state does not fit this engine: {exc}") from exc

    def _state_payload(self, *, copy: bool = True) -> dict[str, Any]:
        """Engine-specific mutable state; overridden by every checkpointable engine.

        ``copy=False`` may return views of live state (see
        :meth:`checkpoint_payload`); implementations that cannot avoid the
        copy are free to ignore the flag.
        """
        raise CheckpointError(f"engine {self.name!r} does not support checkpoints")

    def _restore_payload(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`_state_payload`."""
        raise CheckpointError(f"engine {self.name!r} does not support checkpoints")

    # ------------------------------------------------------- subclass contract

    def _on_run_start(self) -> None:
        """Called once at the start of every :meth:`run` call."""

    @abc.abstractmethod
    def _advance_one_parallel_step(self) -> None:
        """Execute one parallel time step (``n`` interactions)."""

    @abc.abstractmethod
    def _take_snapshot(self) -> EngineSnapshot:
        """Return the snapshot statistics (the due resizes are already applied)."""

    def _on_run_finish(self) -> None:
        """Called once at the end of every :meth:`run` call."""

    @abc.abstractmethod
    def _build_result(
        self, snapshots: list[EngineSnapshot], stopped_early: bool
    ) -> RunResult:
        """Package the run outcome (subclasses may return a subclass)."""


class ArrayStateEngine(Engine):
    """Shared base for engines over struct-of-arrays population state.

    The population is a dictionary of NumPy arrays produced by a
    :class:`repro.engine.batch_engine.VectorizedProtocol`.  This base owns
    the protocol, the random source and the checkpoint payload; its one
    subclass,
    :class:`repro.engine.ensemble_engine.EnsembleSimulator`, builds and
    validates the (stacked) arrays and takes the snapshots.  The 1-D
    :meth:`resize_to` here is overridden by that subclass and stays only
    because the benchmark's tracer (``perfbench/tracer.py``) wraps it by
    name.

    Parameters
    ----------
    protocol:
        A vectorised protocol (must implement ``initial_arrays`` and
        ``output_array``; see the subclass for the interaction contract).
    n:
        Initial population size.
    rng / seed:
        Random source (or a seed to build one).
    resize_schedule:
        Optional ``(parallel_time, target_size)`` pairs, validated and
        applied by :class:`Engine`.
    """

    def __init__(
        self,
        protocol: Any,
        n: int,
        *,
        rng: RandomSource | None = None,
        seed: int | None = None,
        resize_schedule: Iterable[tuple[int, int]] = (),
    ) -> None:
        super().__init__(resize_schedule)
        if n < 2:
            raise ConfigurationError(f"population size must be at least 2, got {n}")
        self.protocol = protocol
        self.rng = rng if rng is not None else RandomSource.from_seed(seed)

    # ------------------------------------------------------------------- size

    def _require_interactable(self) -> int:
        n = self.size
        if n < 2:
            raise EmptyPopulationError("population has fewer than two agents")
        return n

    # ------------------------------------------------------------------ resize

    def resize_to(self, target: int) -> None:
        """Resize the population to ``target`` agents.

        Shrinking keeps a uniformly random subset of the current agents
        (the paper's decimation adversary); growing appends fresh agents in
        the protocol's initial state.
        """
        if target < 2:
            raise ConfigurationError(f"resize target must be at least 2, got {target}")
        current = self.size
        if target == current:
            return
        if target < current:
            keep = self.rng.generator.choice(current, size=target, replace=False)
            keep.sort()
            for key in self.arrays:
                self.arrays[key] = self.arrays[key][keep]
        else:
            extra = self.protocol.initial_arrays(target - current, self.rng)
            missing = [key for key in self.arrays if key not in extra]
            if missing:
                raise ConfigurationError(
                    "initial_arrays is missing state variable(s) "
                    f"{', '.join(repr(k) for k in missing)} when growing"
                )
            for key in self.arrays:
                self.arrays[key] = np.concatenate([self.arrays[key], extra[key]])

    # ------------------------------------------------------------ checkpoints

    def _state_payload(self, *, copy: bool = True) -> dict[str, Any]:
        return {"arrays": {key: np.array(val, copy=copy) for key, val in self.arrays.items()}}

    def _restore_payload(self, state: dict[str, Any]) -> None:
        arrays = state.get("arrays")
        if not isinstance(arrays, dict) or set(arrays) != set(self.arrays):
            found = sorted(arrays) if isinstance(arrays, dict) else arrays
            raise CheckpointError(
                f"checkpoint state planes {found!r} do not match this "
                f"engine's planes {sorted(self.arrays)!r}"
            )
        self.arrays = {key: np.array(val, copy=True) for key, val in arrays.items()}
