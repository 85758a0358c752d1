"""Sharded parallel execution with a deterministic seed tree.

The trial/sweep hot paths fan one experiment out into many independent
units of work: the trials behind a data point, and the grid points of a
parameter sweep.  This module supplies the three pieces every sharded
execution path shares:

* **shard planning** — :func:`plan_shards` splits a trial range into
  contiguous row-shards whose layout depends *only* on the trial count
  (never on the worker count), so the work decomposition is a pure
  function of the workload;
* **worker resolution** — :func:`resolve_workers` turns the user-facing
  ``workers`` knob (``None`` / ``"auto"`` / a positive int) into a
  concrete process count, capping ``"auto"`` at
  :data:`MAX_AUTO_WORKERS`;
* **execution** — :func:`execute_shards` runs one picklable shard
  function over a list of payloads, either serially in-process
  (``workers=1``) or across a :class:`concurrent.futures.
  ProcessPoolExecutor`, returning results in shard order together with
  per-shard wall-clock timings.

Determinism contract
--------------------
Every random stream consumed inside a shard is derived from a
:class:`repro.engine.rng.SeedTree` *address* — ``(point seed, trial)``
for the looped engines and for every row of a ``batched`` stack,
``(point seed, "shard", start)`` for stacked ensemble shards — never from
the shard's position in an execution schedule.  Because shard layout is
worker-independent and every stream is address-derived, ``workers=1`` and
``workers=8`` produce bit-identical per-trial results; the only thing the
worker count changes is wall-clock time.  For the looped engines and
``batched`` the per-trial streams also make any sharded run bit-identical
to the serial ``workers=None`` run: a ``batched`` row draws exactly what a
one-row engine on its trial stream draws, whichever stack it lands in.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine.errors import ConfigurationError

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "MAX_AUTO_WORKERS",
    "TrialShard",
    "ShardTiming",
    "plan_shards",
    "resolve_workers",
    "execute_shards",
    "merge_shard_results",
]

#: Maximum trials per row-shard.  Chosen so that realistic points split
#: into enough shards to feed several cores (a paper-scale 96-trial point
#: becomes 12 shards, a 16-trial figure point 2) while each shard's
#: ensemble stack stays wide enough to amortise NumPy call overhead.
#: Part of the determinism contract: the shard layout — and therefore
#: every derived random stream — depends on this constant and the trial
#: count only, never on the worker count.
DEFAULT_SHARD_SIZE = 8

#: Cap for ``workers="auto"``: beyond this, process startup and result
#: pickling dominate the shard runtimes of laptop-scale presets.
MAX_AUTO_WORKERS = 8


@dataclass(frozen=True)
class TrialShard:
    """One contiguous row-shard of a trial range: trials ``[start, stop)``."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ConfigurationError(
                f"invalid shard range [{self.start}, {self.stop})"
            )

    @property
    def trials(self) -> int:
        """Number of trials in this shard."""
        return self.stop - self.start

    def trial_indices(self) -> range:
        """The global trial indices this shard covers."""
        return range(self.start, self.stop)


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock record of one executed shard."""

    shard: int
    start: int
    stop: int
    seconds: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "start": self.start,
            "stop": self.stop,
            "trials": self.stop - self.start,
            "seconds": self.seconds,
        }


def plan_shards(
    trials: int, shard_size: int | None = None
) -> tuple[TrialShard, ...]:
    """Split ``trials`` into contiguous row-shards of ``<= shard_size`` trials.

    The layout is a pure function of ``(trials, shard_size)`` — it never
    depends on the worker count — and balances shard sizes (the sizes of
    any two shards differ by at most one trial) so no single straggler
    shard dominates the critical path.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    size = DEFAULT_SHARD_SIZE if shard_size is None else shard_size
    if size < 1:
        raise ConfigurationError(f"shard_size must be at least 1, got {size}")
    count = -(-trials // size)  # ceil division
    base, remainder = divmod(trials, count)
    shards = []
    start = 0
    for index in range(count):
        width = base + (1 if index < remainder else 0)
        shards.append(TrialShard(index=index, start=start, stop=start + width))
        start += width
    return tuple(shards)


def resolve_workers(workers: int | str | None) -> int | None:
    """Normalise the user-facing ``workers`` knob to a process count.

    ``None`` keeps the legacy serial path (returns ``None``); ``"auto"``
    uses ``os.cpu_count()`` capped at :data:`MAX_AUTO_WORKERS`; a positive
    integer is used as-is (``1`` means the sharded path executed
    serially in-process — bit-identical to any higher worker count).
    """
    if workers is None:
        return None
    if isinstance(workers, str):
        if workers == "auto":
            return max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKERS))
        raise ConfigurationError(
            f"workers must be a positive integer, 'auto' or None, got {workers!r}"
        )
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigurationError(
            f"workers must be a positive integer, 'auto' or None, got {workers!r}"
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    return workers


def _timed_shard(job: tuple[Callable[[Any], Any], Any]) -> tuple[Any, float]:
    """Run one shard job and measure it; module-level so workers can unpickle."""
    fn, payload = job
    started = time.perf_counter()
    result = fn(payload)
    return result, time.perf_counter() - started


def execute_shards(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    workers: int,
    shards: Sequence[TrialShard] | None = None,
) -> tuple[list[Any], list[ShardTiming]]:
    """Run ``fn(payload)`` for every payload; return results in input order.

    ``workers=1`` (or a single payload) executes serially in the current
    process; higher counts fan the jobs out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`, in which case ``fn``
    and every payload must be picklable (module-level function, plain-data
    payloads).  Results come back in payload order regardless of worker
    scheduling, and each job's wall-clock time (measured inside the worker)
    is reported as a :class:`ShardTiming` — aligned with ``shards`` when
    given, otherwise numbered by payload position.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    if shards is not None and len(shards) != len(payloads):
        raise ConfigurationError(
            f"got {len(shards)} shards for {len(payloads)} payloads"
        )
    jobs = [(fn, payload) for payload in payloads]
    if workers == 1 or len(jobs) <= 1:
        outcomes = [_timed_shard(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            outcomes = list(pool.map(_timed_shard, jobs))
    results = [result for result, _ in outcomes]
    timings = []
    for position, (_, seconds) in enumerate(outcomes):
        if shards is not None:
            shard = shards[position]
            index, start, stop = shard.index, shard.start, shard.stop
        else:
            index, start, stop = position, position, position + 1
        timings.append(
            ShardTiming(shard=index, start=start, stop=stop, seconds=seconds)
        )
    return results, timings


def merge_shard_results(
    shards: Sequence[TrialShard], per_shard: Sequence[Sequence[Any]]
) -> list[Any]:
    """Reassemble per-shard result lists into one list in trial order.

    Accepts the shards (and their result lists) in *any* order — merging
    sorts by shard start, so the merge is order-invariant — and verifies
    that every shard delivered exactly one result per trial and that the
    shards tile the trial range without gaps or overlaps.
    """
    if len(shards) != len(per_shard):
        raise ConfigurationError(
            f"got {len(per_shard)} result lists for {len(shards)} shards"
        )
    paired = sorted(zip(shards, per_shard), key=lambda pair: pair[0].start)
    merged: list[Any] = []
    expected_start = paired[0][0].start if paired else 0
    if expected_start != 0:
        raise ConfigurationError(
            f"shards do not start at trial 0 (first start: {expected_start})"
        )
    for shard, results in paired:
        if shard.start != len(merged):
            raise ConfigurationError(
                f"shard {shard.index} starts at trial {shard.start}, expected "
                f"{len(merged)}: shards overlap or leave a gap"
            )
        if len(results) != shard.trials:
            raise ConfigurationError(
                f"shard {shard.index} returned {len(results)} results for "
                f"{shard.trials} trials"
            )
        merged.extend(results)
    return merged
