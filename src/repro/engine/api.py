"""Unified engine API shared by all execution engines.

Every engine in this package — the exact sequential
:class:`repro.engine.simulator.Simulator`, the exact struct-of-arrays
:class:`repro.engine.array_engine.ArraySimulator`, the approximate
vectorised :class:`repro.engine.ensemble_engine.EnsembleSimulator` and the
count-vector :class:`repro.engine.counts_engine.CountsSimulator` —
implements the same contract:

``run(parallel_time, stop_when=..., snapshot_every=...) -> RunResult``

with a shared :class:`RunResult`/:class:`EngineSnapshot` vocabulary,
snapshot hooks for observers, and adversary consultation (population
resizes) at snapshot granularity.  Experiment code can therefore select an
engine by name (see :mod:`repro.engine.registry`) and post-process the
result without knowing which engine produced it.

The run loop itself lives here as a template method: subclasses provide
``_advance_one_parallel_step`` / ``_take_snapshot`` / ``_build_result`` and
inherit the horizon bookkeeping, early stopping, and hook dispatch.
"""

from __future__ import annotations

import abc
import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.engine.errors import CheckpointError, ConfigurationError, EmptyPopulationError
from repro.engine.rng import RandomSource

__all__ = [
    "EngineSnapshot",
    "RunResult",
    "Engine",
    "ArrayStateEngine",
    "quantiles",
    "matrix_quantiles",
]


def quantiles(values: Sequence[float] | np.ndarray) -> tuple[float, float, float]:
    """Return (min, median, max) of a non-empty sequence.

    The single definition behind every reported (minimum, median, maximum)
    triple — engine snapshots and recorder rows alike — so the statistics
    agree across engines down to NaN propagation.

    This runs on every snapshot of every engine, so it avoids the full sort
    behind ``np.median``: one ``np.partition`` call with the extreme and
    middle ranks as pivots yields all three statistics in linear expected
    time.  The results are identical to ``(arr.min(), np.median(arr),
    arr.max())``, including the all-NaN answer when any element is NaN.
    """
    arr = np.asarray(values, dtype=float).ravel()
    size = arr.size
    if size == 0:
        raise ValueError("quantiles() requires a non-empty sequence")
    if np.isnan(arr).any():
        # min/max/median all propagate NaN under NumPy semantics.
        nan = float("nan")
        return nan, nan, nan
    mid = size // 2
    if size % 2:
        part = np.partition(arr, (0, mid, size - 1))
        median = float(part[mid])
    else:
        part = np.partition(arr, (0, mid - 1, mid, size - 1))
        median = 0.5 * (float(part[mid - 1]) + float(part[mid]))
    return float(part[0]), median, float(part[size - 1])


def matrix_quantiles(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (min, median, max) of a 2-D ``(trials, n)`` matrix.

    The ensemble engine's counterpart of :func:`quantiles`: one partition
    pass over the stacked outputs yields the per-trial statistics of every
    row at once.  Rows containing NaN report NaN for all three statistics,
    matching ``np.min`` / ``np.median`` / ``np.max`` along the row axis.
    The input dtype is preserved through the partition (a float32 stack is
    partitioned as float32), so narrow ensemble states never pay a
    full-width upcast per snapshot.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[1] == 0:
        raise ValueError(f"matrix_quantiles() needs a non-empty 2-D matrix, got shape {m.shape}")
    n = m.shape[1]
    mid = n // 2
    if n % 2:
        part = np.partition(m, (0, mid, n - 1), axis=1)
        medians = part[:, mid].copy()
    else:
        part = np.partition(m, (0, mid - 1, mid, n - 1), axis=1)
        medians = 0.5 * (part[:, mid - 1] + part[:, mid])
    minima = part[:, 0].copy()
    maxima = part[:, n - 1].copy()
    has_nan = np.isnan(m).any(axis=1)
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


def _stop_condition_arity(stop_when: Callable[..., bool], default: int) -> int:
    """Number of positional arguments to call a ``stop_when`` callable with.

    Engines historically used two conventions — ``stop_when(engine)`` on the
    sequential engine and ``stop_when(engine, snapshot)`` on the batched one
    — and both remain supported everywhere.  Unambiguous signatures decide
    for themselves (exactly one acceptable positional argument → one, two or
    more *required* → two); ambiguous ones — optional extra parameters like
    ``def stop(sim, threshold=8.0)`` or ``lambda sim, snap=None``, ``*args``,
    C callables — fall back to ``default``, each engine's historical
    convention, so predicates written against either old engine keep
    receiving exactly the arguments they used to.
    """
    try:
        signature = inspect.signature(stop_when)
    except (TypeError, ValueError):  # builtins / C callables
        return default
    required = 0
    acceptable = 0
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            acceptable = 2
            continue
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            acceptable += 1
            if parameter.default is inspect.Parameter.empty:
                required += 1
    if required >= 2:
        return 2
    if acceptable <= 1:
        return 1
    return default


class Engine(abc.ABC):
    """Abstract base class for all execution engines.

    Subclasses drive the simulation through three hooks — advance one
    parallel time step, take one snapshot (which is also where adversaries
    act), and build the final result — while :meth:`run` owns the horizon
    bookkeeping, early stopping, and snapshot-hook dispatch shared by every
    engine.
    """

    #: Engine name used in run metadata (``"sequential"`` / ``"array"`` / ...).
    name: str = "engine"

    #: Historical ``stop_when`` calling convention, used for signatures that
    #: could accept either one or two arguments.  The sequential engine
    #: always called ``stop_when(engine)``; the array engines always called
    #: ``stop_when(engine, snapshot)``.
    _default_stop_arity: int = 2

    def __init__(self) -> None:
        self.parallel_time: int = 0
        self.interactions_executed: int = 0
        self._snapshot_hooks: list[Callable[["Engine", EngineSnapshot], None]] = []

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
            Optional early-stop predicate evaluated after every snapshot.
            Both ``stop_when(engine)`` and ``stop_when(engine, snapshot)``
            signatures are accepted.
        snapshot_every:
            Take a snapshot (and consult the adversary / observers) every
            this many parallel time steps.
        """
        if parallel_time < 0:
            raise ConfigurationError(
                f"parallel_time must be non-negative, got {parallel_time}"
            )
        if snapshot_every < 1:
            raise ConfigurationError(f"snapshot_every must be >= 1, got {snapshot_every}")

        wants_snapshot = stop_when is not None and (
            _stop_condition_arity(stop_when, self._default_stop_arity) >= 2
        )

        self._on_run_start()
        snapshots: list[EngineSnapshot] = []
        stopped_early = False
        target = self.parallel_time + parallel_time
        while self.parallel_time < target:
            steps = min(snapshot_every, target - self.parallel_time)
            for _ in range(steps):
                self._advance_one_parallel_step()
            snapshot = self._take_snapshot()
            snapshots.append(snapshot)
            for hook in self._snapshot_hooks:
                hook(self, snapshot)
            if stop_when is not None:
                fired = stop_when(self, snapshot) if wants_snapshot else stop_when(self)
                if fired:
                    stopped_early = True
                    break
        self._on_run_finish()
        return self._build_result(snapshots, stopped_early)

    # ------------------------------------------------------------ checkpoints

    def checkpoint_payload(self, *, copy: bool = True) -> dict[str, Any]:
        """In-memory checkpoint of the engine's complete mutable state.

        The payload captures everything a freshly constructed, identically
        configured engine needs to continue the run bit-identically: the
        run-loop counters, the RNG bit-generator state, and the
        engine-specific state from :meth:`_state_payload` (population /
        state planes, adversary position, ...).  Persist it with
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
        """Apply the adversary (if any) and return the snapshot statistics."""

    def _on_run_finish(self) -> None:
        """Called once at the end of every :meth:`run` call."""

    @abc.abstractmethod
    def _build_result(
        self, snapshots: list[EngineSnapshot], stopped_early: bool
    ) -> RunResult:
        """Package the run outcome (subclasses may return a subclass)."""


class ArrayStateEngine(Engine):
    """Shared base for engines over struct-of-arrays population state.

    The population is a dictionary of equal-length NumPy arrays produced by
    a :class:`repro.engine.batch_engine.VectorizedProtocol`.  This base owns
    the array lifecycle — creation, validation, snapshot statistics, and the
    resize-schedule adversary — while subclasses decide how interactions are
    executed (exact scalar loop vs vectorised batches).

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
        Optional list of ``(parallel_time, target_size)`` pairs applied at
        snapshot granularity; shrinking keeps a uniformly random subset,
        growing appends agents in the protocol's initial state.  This
        mirrors :class:`repro.engine.adversary.ResizeSchedule` for the
        array world.
    initial_arrays:
        Optional pre-built state arrays (copied) for non-default initial
        configurations.
    """

    def __init__(
        self,
        protocol: Any,
        n: int,
        *,
        rng: RandomSource | None = None,
        seed: int | None = None,
        resize_schedule: Iterable[tuple[int, int]] = (),
        initial_arrays: dict[str, np.ndarray] | None = None,
    ) -> None:
        super().__init__()
        if n < 2:
            raise ConfigurationError(f"population size must be at least 2, got {n}")
        self.protocol = protocol
        self.rng = rng if rng is not None else RandomSource.from_seed(seed)
        self.arrays = self._build_initial_arrays(n, initial_arrays)
        self._validate_arrays(n)
        self._resize_events = sorted(
            ((int(t), int(size)) for t, size in resize_schedule), key=lambda e: e[0]
        )
        for time, size in self._resize_events:
            if time < 0:
                raise ConfigurationError(f"resize time must be non-negative, got {time}")
            if size < 2:
                raise ConfigurationError(f"resize target must be at least 2, got {size}")
        self._resize_cursor = 0

    def _build_initial_arrays(
        self, n: int, initial_arrays: dict[str, np.ndarray] | None
    ) -> dict[str, np.ndarray]:
        """Build the state arrays; overridden by the ensemble engine to stack trials."""
        if initial_arrays is None:
            return self.protocol.initial_arrays(n, self.rng)
        return {key: np.array(val, copy=True) for key, val in initial_arrays.items()}

    def _validate_arrays(self, n: int) -> None:
        lengths = {key: len(arr) for key, arr in self.arrays.items()}
        if not lengths:
            raise ConfigurationError("protocol returned no state arrays")
        if len(set(lengths.values())) != 1:
            raise ConfigurationError(f"state arrays have inconsistent lengths: {lengths}")
        actual = next(iter(lengths.values()))
        if actual != n:
            raise ConfigurationError(f"state arrays have length {actual}, expected {n}")

    # ------------------------------------------------------------------- size

    @property
    def size(self) -> int:
        """Current population size."""
        return len(next(iter(self.arrays.values())))

    def _require_interactable(self) -> int:
        n = self.size
        if n < 2:
            raise EmptyPopulationError("population has fewer than two agents")
        return n

    # -------------------------------------------------------------- adversary

    def _apply_resizes(self) -> None:
        while (
            self._resize_cursor < len(self._resize_events)
            and self._resize_events[self._resize_cursor][0] <= self.parallel_time
        ):
            _, target = self._resize_events[self._resize_cursor]
            self._resize_cursor += 1
            self.resize_to(target)

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
        return {
            "arrays": {key: np.array(val, copy=copy) for key, val in self.arrays.items()},
            "resize_cursor": int(self._resize_cursor),
        }

    def _restore_payload(self, state: dict[str, Any]) -> None:
        arrays = state.get("arrays")
        if not isinstance(arrays, dict) or set(arrays) != set(self.arrays):
            found = sorted(arrays) if isinstance(arrays, dict) else arrays
            raise CheckpointError(
                f"checkpoint state planes {found!r} do not match this "
                f"engine's planes {sorted(self.arrays)!r}"
            )
        self.arrays = {key: np.array(val, copy=True) for key, val in arrays.items()}
        self._resize_cursor = int(state["resize_cursor"])

    # -------------------------------------------------------------- snapshots

    def _take_snapshot(self) -> EngineSnapshot:
        self._apply_resizes()
        minimum, median, maximum = quantiles(self.protocol.output_array(self.arrays))
        return EngineSnapshot(
            parallel_time=self.parallel_time,
            population_size=self.size,
            minimum=minimum,
            median=median,
            maximum=maximum,
        )

    def outputs(self) -> np.ndarray:
        """Current per-agent outputs."""
        return np.asarray(self.protocol.output_array(self.arrays), dtype=float)
