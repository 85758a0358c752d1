"""Sharded parallel execution with a deterministic seed tree.

The trial/sweep hot paths fan one experiment out into many independent
units of work: the trials behind a data point, and the grid points of a
parameter sweep.  This module supplies the pieces every sharded
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
  (``workers=1``) or on the worker processes of a :class:`ShardPool`,
  returning results in shard order together with per-shard wall-clock
  timings.

Worker processes
----------------
A :class:`ShardPool` owns one :class:`concurrent.futures.ProcessPoolExecutor`
and keeps its workers across sharded runs, so a caller that runs many
sharded points forks once and runs on warm workers.  :func:`execute_shards`
runs on the pool its caller made current (``with pool.activate(): ...``, a
:mod:`contextvars` binding, so every thread sees its own); with no current
pool it runs on a pool scoped to that one call, whose workers are reaped
before it returns.  :class:`repro.serve.service.SimulationService` makes
one pool current per job thread.  A run uses ``min(workers, shards)``
processes; the pool keeps its workers for any run that needs no more
processes than it has and allows no fewer than it has, so a caller
alternating 2- and 4-shard points under ``workers=4`` forks once.  A pool
replaces its workers otherwise, after a worker died (a death during a run
fails that run with :class:`~repro.engine.errors.WorkerDiedError`; a
death while idle fails nothing), and after a scenario, engine,
vectorized-protocol or counts-kernel registration
(:func:`note_registry_change`): shard functions resolve those names inside
the worker, whose registries date from its fork.

Workers start with the platform's default start method, fork on Linux.
Forked workers inherit what the parent imported and patched before the
fork — registrations, test doubles, the benchmark's tracing wrappers —
which spawn or forkserver workers would not.

A warm worker outlives the point that forked it, so it drops what it must
not keep that long.  A fork copies every open file descriptor, so each
worker first closes the sockets it inherited: in a server it would
otherwise hold the listening socket and every client connection open at
fork time, keeping closed connections from ending and a dead server's port
bound.  And each worker exits within a second of the pool's process dying
(killed, out of memory): an idle worker waits on a queue whose write end it
holds itself, so nothing else would ever end it.

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
Which pool, and whether its workers are warm, never changes a result.
"""

from __future__ import annotations

import os
import signal
import stat
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.engine.errors import ConfigurationError, WorkerDiedError

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "MAX_AUTO_WORKERS",
    "ShardPool",
    "TrialShard",
    "ShardTiming",
    "plan_shards",
    "resolve_workers",
    "execute_shards",
    "merge_shard_results",
    "note_registry_change",
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


#: How often, in seconds, a worker checks that the pool's process still lives.
_PARENT_POLL_S = 1.0

#: Bumped by :func:`note_registry_change`; a pool whose workers were forked
#: at an older value replaces them before its next run.
_registry_version = 0

_CURRENT_POOL: ContextVar["ShardPool | None"] = ContextVar(
    "repro_shard_pool", default=None
)

#: Held while a pool submits work, which is where its executor forks the
#: workers.  A worker's exit pipe is open at both ends in the parent until
#: just after that worker's fork; a fork from another thread in between
#: gives the other pool's worker a copy of the write end, and then the
#: first pool never sees that worker die and its run hangs.
_FORK_LOCK = threading.Lock()


def _reset_fork_lock() -> None:
    # A child forked under the lock inherits it held.
    global _FORK_LOCK
    _FORK_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_fork_lock)


def note_registry_change() -> None:
    """Record a new registry entry that workers forked before it lack.

    The scenario registry and the engine, vectorized-protocol and
    counts-kernel registries call this on every registration.
    """
    global _registry_version
    _registry_version += 1


def _init_worker(parent: int) -> None:
    """Worker initializer: drop inherited sockets, exit when ``parent`` dies."""
    _close_inherited_sockets()
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def _exit_with(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _close_inherited_sockets() -> None:
    """Close every socket the fork copied from the parent.

    The executor's own channels are pipes, so they stay open.
    """
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            names = os.listdir(fd_dir)
        except OSError:
            continue
        break
    else:
        return
    for name in names:
        try:
            fd = int(name)
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except (OSError, ValueError):
            # The listing's own descriptor, already closed.
            pass


def _exit_reason(code: int | None) -> str:
    if code is None:
        return "exit code unknown"
    if code < 0:
        try:
            return f"killed by {signal.Signals(-code).name}"
        except ValueError:
            return f"killed by signal {-code}"
    return f"exit code {code}"


def _death_report(processes: dict[int, Any]) -> str:
    """Name the workers that died on their own, not those the executor then stopped."""
    codes = {pid: process.exitcode for pid, process in processes.items()}
    dead = {
        pid: code for pid, code in codes.items() if code not in (None, -signal.SIGTERM)
    } or codes
    named = ", ".join(f"{pid} ({_exit_reason(code)})" for pid, code in sorted(dead.items()))
    noun = "process" if len(dead) == 1 else "processes"
    return (
        f"shard worker {noun} {named} died mid-run; the run's unfinished shards "
        "were lost and the pool's workers were replaced"
    )


class ShardPool:
    """Worker processes kept across sharded runs; see the module docstring.

    The executor is built on the first run that needs processes, so making a
    pool starts none.  A pool serves one thread at a time.  :meth:`close`,
    or leaving a ``with ShardPool()`` block, shuts the workers down and
    waits for them.
    """

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0
        self._version = 0
        self._pid = os.getpid()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @contextmanager
    def activate(self) -> Iterator["ShardPool"]:
        """Make this the pool :func:`execute_shards` runs on inside the block."""
        token = _CURRENT_POOL.set(self)
        try:
            yield self
        finally:
            _CURRENT_POOL.reset(token)

    def run(
        self, jobs: Sequence[tuple[Callable[[Any], Any], Any]], *, workers: int
    ) -> list[tuple[Any, float]]:
        """Run ``(fn, payload)`` jobs on at most ``workers`` processes; outcomes in job order.

        The run uses ``min(workers, len(jobs))`` processes.  A worker that
        dies during the run raises :class:`~repro.engine.errors.WorkerDiedError`
        naming it, and the next run forks fresh workers.  When a shard
        raises, the call's other shards finish before the error leaves.
        """
        executor = self._executor_for(min(workers, len(jobs)), workers)
        futures = []
        try:
            with _FORK_LOCK:
                futures.extend(executor.submit(_timed_shard, job) for job in jobs)
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            # Private, but the only record of which processes the pool ran.
            processes = dict(executor._processes or {})
            self.close()
            raise WorkerDiedError(_death_report(processes)) from exc
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise

    def _executor_for(self, size: int, workers: int) -> ProcessPoolExecutor:
        """An executor of ``size`` to ``workers`` live processes, forking only if needed."""
        executor = self._executor
        if executor is not None and (
            not size <= self._workers <= workers
            or self._version != _registry_version
            or _lost_a_worker(executor)
        ):
            self.close()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=size, initializer=_init_worker, initargs=(os.getpid(),)
            )
            self._workers, self._version = size, _registry_version
        return self._executor

    def close(self) -> None:
        """Shut the workers down and wait for them; a later run forks new ones."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def _lost_a_worker(executor: ProcessPoolExecutor) -> bool:
    """Whether a worker died since the last run, flagged by the executor yet or not."""
    # Private, but the only record of the executor's health and processes.
    processes = tuple((executor._processes or {}).values())
    return bool(executor._broken) or any(p.exitcode is not None for p in processes)


def _current_pool() -> ShardPool | None:
    pool = _CURRENT_POOL.get()
    # A forked worker inherits its parent's binding but none of its workers.
    return pool if pool is not None and pool._pid == os.getpid() else None


def execute_shards(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    workers: int,
    shards: Sequence[TrialShard] | None = None,
) -> tuple[list[Any], list[ShardTiming]]:
    """Run ``fn(payload)`` for every payload; return results in input order.

    ``workers=1`` (or a single payload) executes serially in the current
    process; higher counts fan the jobs out over ``min(workers,
    len(payloads))`` processes of the current :class:`ShardPool` (or of a
    pool scoped to this call when none is current), in which case ``fn``
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
        pool = _current_pool()
        if pool is None:
            with ShardPool() as scoped:
                outcomes = scoped.run(jobs, workers=workers)
        else:
            outcomes = pool.run(jobs, workers=workers)
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
