"""Bounded asynchronous job queue for simulation requests.

Framework-free: a :class:`JobQueue` is a thread pool plus a job table.  Each
job walks ``queued -> running -> done | failed`` with wall-clock timestamps
at every transition and the execution time measured on a monotonic clock;
failures capture the exception as a one-line error string (the traceback
stays in the server log, not the API payload).

Admission is bounded: at most ``max_pending`` jobs may sit in the queued
state — beyond that :meth:`JobQueue.submit` raises :class:`QueueFullError`
so the HTTP layer can push back with a 429 instead of buffering unbounded
work.  Submitting a job id that is already queued, running or done returns
the existing job (single-flight: two identical submissions share one
computation); a *failed* id may be resubmitted and re-runs.

The table is bounded too: it keeps the :data:`FINISHED_JOBS_KEPT` most
recently finished jobs and retires older ones, and it counts jobs per state
at every transition, so neither admission nor :meth:`JobQueue.depth` scans
it.  A retired id is unknown to the queue (the serving layer answers for a
retired finished run from its result cache) and may be submitted again.

Threads, not processes, carry the jobs: the heavy lifting inside a job is
the NumPy/sharded-executor path of :func:`repro.scenarios.runner.run_scenario`,
which releases the GIL in its hot loops and can itself fan out worker
processes (``workers=``) — the queue only needs enough threads to overlap
cache writes and bookkeeping.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

__all__ = ["FINISHED_JOBS_KEPT", "Job", "JobQueue", "JobState", "QueueFullError"]

#: Finished (done or failed) jobs the table keeps; older ones are retired,
#: oldest finish first.
FINISHED_JOBS_KEPT = 1024


class QueueFullError(RuntimeError):
    """Raised by :meth:`JobQueue.submit` when the pending bound is reached."""


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One unit of queued work and its lifecycle bookkeeping.

    Attributes
    ----------
    id:
        Caller-chosen identifier (the serving layer uses the run's cache
        key, making the job table content-addressed too).
    request:
        JSON-encodable echo of what was asked for (shown by status APIs).
    state / error:
        Lifecycle state; ``error`` is set exactly when ``state`` is FAILED.
    created / started / finished:
        Wall-clock (``time.time``) transition timestamps; ``None`` until the
        transition happens.
    seconds:
        Monotonic execution time of the work callable itself.
    value:
        Whatever the work callable returned (``None`` for failures).
    completed:
        Set once the job is DONE or FAILED; :meth:`JobQueue.wait` blocks on
        it.
    """

    id: str
    request: dict[str, Any] = field(default_factory=dict)
    state: JobState = JobState.QUEUED
    error: str | None = None
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    seconds: float | None = None
    value: Any = None
    completed: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def status(self) -> dict[str, Any]:
        """JSON-encodable snapshot (no result payload)."""
        return {
            "id": self.id,
            "state": self.state.value,
            "request": dict(self.request),
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "seconds": self.seconds,
        }


class JobQueue:
    """Run jobs on a bounded worker pool; see the module docstring."""

    def __init__(self, *, max_workers: int = 2, max_pending: int = 64) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be at least 1, got {max_pending}")
        self.max_workers = max_workers
        self.max_pending = max_pending
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._jobs: dict[str, Job] = {}
        #: Ids of the table's finished jobs, oldest finish first.
        self._finished: OrderedDict[str, None] = OrderedDict()
        self._counts = {state: 0 for state in JobState}
        self._lock = threading.Lock()

    def submit(
        self,
        job_id: str,
        work: Callable[[], Any],
        *,
        request: dict[str, Any] | None = None,
    ) -> Job:
        """Enqueue ``work`` under ``job_id``; single-flight per id.

        Returns the existing job when the id is already queued, running or
        done.  A previously failed id is replaced and re-run.  Raises
        :class:`QueueFullError` when ``max_pending`` jobs are already
        waiting, and the pool's ``RuntimeError`` after :meth:`shutdown`
        (the job then leaves no trace in the table or the counts).
        """
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None and existing.state is not JobState.FAILED:
                return existing
            pending = self._counts[JobState.QUEUED]
            if pending >= self.max_pending:
                raise QueueFullError(
                    f"job queue is full ({pending} pending, bound "
                    f"{self.max_pending}); retry later"
                )
            if existing is not None:
                del self._finished[job_id]
                self._counts[JobState.FAILED] -= 1
            job = Job(id=job_id, request=dict(request or {}))
            self._jobs[job_id] = job
            self._counts[JobState.QUEUED] += 1
        try:
            self._pool.submit(self._run, job, work)
        except BaseException as exc:
            # The pool refused the job (it is shut down): nothing will ever
            # run it, so take it back out of the table and the counts, and
            # end it for anyone already holding it.
            with self._lock:
                if self._jobs.get(job_id) is job:
                    del self._jobs[job_id]
                    self._finished.pop(job_id, None)
                    self._counts[job.state] -= 1
                job.state = JobState.FAILED
                job.error = f"{type(exc).__name__}: {exc}"
            job.completed.set()
            raise
        return job

    def _move(self, job: Job, state: JobState) -> None:
        """Move ``job`` to ``state`` (caller holds the lock), retiring old jobs."""
        self._counts[job.state] -= 1
        self._counts[state] += 1
        job.state = state
        if state in (JobState.DONE, JobState.FAILED):
            self._finished[job.id] = None
            while len(self._finished) > FINISHED_JOBS_KEPT:
                retired, _ = self._finished.popitem(last=False)
                self._counts[self._jobs.pop(retired).state] -= 1

    def _run(self, job: Job, work: Callable[[], Any]) -> None:
        with self._lock:
            # Shutdown may have swept this job to FAILED between the pool
            # accepting the future and this thread picking it up; running
            # it anyway would resurrect a job the API already reported dead.
            if job.state is not JobState.QUEUED:
                return
            job.started = time.time()
            self._move(job, JobState.RUNNING)
        clock = time.perf_counter()
        try:
            value = work()
        except Exception as exc:
            self._finish(job, clock, JobState.FAILED, error=f"{type(exc).__name__}: {exc}")
        else:
            self._finish(job, clock, JobState.DONE, value=value)
        finally:
            job.completed.set()

    def _finish(
        self,
        job: Job,
        clock: float,
        state: JobState,
        *,
        value: Any = None,
        error: str | None = None,
    ) -> None:
        job.seconds = time.perf_counter() - clock
        job.finished = time.time()
        job.value = value
        job.error = error
        with self._lock:
            self._move(job, state)

    def get(self, job_id: str) -> Job | None:
        """The job for an id, or ``None`` when unknown."""
        with self._lock:
            return self._jobs.get(job_id)

    def depth(self) -> dict[str, int]:
        """Current queue occupancy by state (for ``/healthz``)."""
        with self._lock:
            counts = {state.value: count for state, count in self._counts.items()}
        counts["pending"] = counts[JobState.QUEUED.value]
        return counts

    def wait(self, job_id: str, *, timeout: float = 60.0) -> Job:
        """Block until a job is DONE or FAILED (tests, CLIs); returns the job.

        Raises :class:`KeyError` for an unknown id and :class:`TimeoutError`
        when the job is still queued or running after ``timeout`` seconds.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if not job.completed.wait(timeout):
            raise TimeoutError(f"job {job_id!r} still {job.state.value} after {timeout}s")
        return job

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running jobs.

        Jobs whose futures are cancelled before a worker picked them up
        would otherwise sit in the queued state forever (their ``_run``
        wrapper never executes); they are swept to FAILED with a
        cancellation error so status APIs report them terminally.
        """
        self._pool.shutdown(wait=wait, cancel_futures=True)
        now = time.time()
        with self._lock:
            for job in [job for job in self._jobs.values() if job.state is JobState.QUEUED]:
                job.finished = now
                job.error = "CancelledError: job queue shut down before the job started"
                self._move(job, JobState.FAILED)
                job.completed.set()
