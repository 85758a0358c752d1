"""JobQueue: lifecycle states, timings, error capture, bounds, single-flight."""

from __future__ import annotations

import threading

import pytest

from repro.serve import jobs as jobs_module
from repro.serve.jobs import Job, JobQueue, JobState, QueueFullError


@pytest.fixture
def queue():
    q = JobQueue(max_workers=2, max_pending=8)
    yield q
    q.shutdown(wait=False)


class TestLifecycle:
    def test_successful_job_walks_queued_running_done(self, queue):
        job = queue.submit("job-ok", lambda: 41 + 1, request={"what": "sum"})
        finished = queue.wait("job-ok")
        assert finished is job
        assert finished.state is JobState.DONE
        assert finished.value == 42
        assert finished.error is None
        assert finished.request == {"what": "sum"}
        assert finished.created <= finished.started <= finished.finished
        assert finished.seconds is not None and finished.seconds >= 0.0

    def test_failure_captures_error_and_timing(self, queue):
        def boom():
            raise ValueError("the reactor is leaking")

        queue.submit("job-bad", boom)
        job = queue.wait("job-bad")
        assert job.state is JobState.FAILED
        assert job.error == "ValueError: the reactor is leaking"
        assert job.value is None
        assert job.finished is not None and job.seconds is not None

    def test_status_is_json_encodable(self, queue):
        import json

        queue.submit("job-status", lambda: None)
        job = queue.wait("job-status")
        payload = job.status()
        assert json.loads(json.dumps(payload))["state"] == "done"
        assert payload["id"] == "job-status"

    def test_unknown_job_is_none_and_wait_raises(self, queue):
        assert queue.get("nope") is None
        with pytest.raises(KeyError):
            queue.wait("nope", timeout=0.1)

    def test_wait_times_out_on_stuck_job(self, queue):
        release = threading.Event()
        queue.submit("job-stuck", release.wait)
        with pytest.raises(TimeoutError):
            queue.wait("job-stuck", timeout=0.05)
        release.set()
        assert queue.wait("job-stuck").state is JobState.DONE

    def test_a_blocked_waiter_gets_the_finished_job(self, queue):
        release = threading.Event()
        job = queue.submit("job-later", lambda: release.wait() and "late")
        waited = []
        waiter = threading.Thread(target=lambda: waited.append(queue.wait("job-later")))
        waiter.start()
        assert not job.completed.is_set()
        release.set()
        waiter.join(timeout=5.0)
        assert waited == [job]
        assert job.state is JobState.DONE and job.value == "late"
        assert job.completed.is_set()

    def test_wait_takes_no_poll_interval(self, queue):
        queue.submit("job-poll", lambda: None)
        with pytest.raises(TypeError):
            queue.wait("job-poll", timeout=5.0, poll=0.01)


class TestSingleFlight:
    def test_same_id_attaches_to_inflight_job(self, queue):
        release = threading.Event()
        calls = []

        def work():
            calls.append(1)
            release.wait()

        first = queue.submit("job-dup", work)
        second = queue.submit("job-dup", work)
        assert second is first
        release.set()
        queue.wait("job-dup")
        assert calls == [1], "one submission, one execution"

    def test_done_id_returns_existing_job_without_rerun(self, queue):
        calls = []
        queue.submit("job-done", lambda: calls.append(1))
        queue.wait("job-done")
        again = queue.submit("job-done", lambda: calls.append(1))
        assert again.state is JobState.DONE
        assert calls == [1]

    def test_failed_id_is_resubmittable_and_reruns(self, queue):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return "recovered"

        queue.submit("job-retry", flaky)
        assert queue.wait("job-retry").state is JobState.FAILED
        queue.submit("job-retry", flaky)
        job = queue.wait("job-retry")
        assert job.state is JobState.DONE
        assert job.value == "recovered"
        assert len(attempts) == 2


class TestBounds:
    def test_pending_bound_rejects_excess_submissions(self):
        queue = JobQueue(max_workers=1, max_pending=1)
        release = threading.Event()
        try:
            queue.submit("job-a", release.wait)  # occupies the single worker
            # Give the pool a moment to start job-a so it leaves QUEUED.
            deadline = 100
            while queue.get("job-a").state is JobState.QUEUED and deadline:
                deadline -= 1
                import time

                time.sleep(0.01)
            queue.submit("job-b", lambda: None)  # fills the pending slot
            with pytest.raises(QueueFullError):
                queue.submit("job-c", lambda: None)
            release.set()
            queue.wait("job-b")
            # With the queue drained, admission opens again.
            queue.submit("job-c", lambda: None)
            assert queue.wait("job-c").state is JobState.DONE
        finally:
            release.set()
            queue.shutdown(wait=False)

    def test_depth_counts_states(self, queue):
        release = threading.Event()
        queue.submit("job-d1", release.wait)
        queue.submit("job-d2", release.wait)
        release.set()
        queue.wait("job-d1")
        queue.wait("job-d2")
        depth = queue.depth()
        assert depth["done"] == 2
        assert depth["pending"] == 0 and depth["running"] == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            JobQueue(max_workers=0)
        with pytest.raises(ValueError):
            JobQueue(max_pending=0)


def occupancy(*, queued=0, running=0, done=0, failed=0) -> dict[str, int]:
    """What :meth:`JobQueue.depth` reports for these per-state counts."""
    return {"queued": queued, "running": running, "done": done, "failed": failed, "pending": queued}


class TestRetention:
    """The table keeps the last ``FINISHED_JOBS_KEPT`` finished jobs, counted per state."""

    KEPT = 3

    @pytest.fixture(autouse=True)
    def _small_table(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", self.KEPT)

    def test_oldest_finished_jobs_are_retired(self, queue):
        ids = [f"job-{i}" for i in range(3 * self.KEPT)]
        for job_id in ids:
            queue.submit(job_id, lambda: None)
            assert queue.wait(job_id).state is JobState.DONE
        assert [queue.get(job_id) is not None for job_id in ids] == (
            [False] * (len(ids) - self.KEPT) + [True] * self.KEPT
        )
        assert len(queue._jobs) == self.KEPT
        assert queue.depth() == occupancy(done=self.KEPT)
        with pytest.raises(KeyError):
            queue.wait(ids[0])

    def test_a_retired_id_runs_again(self, queue):
        calls = []
        queue.submit("job-first", lambda: calls.append(1))
        queue.wait("job-first")
        for i in range(self.KEPT):
            queue.submit(f"job-{i}", lambda: None)
            queue.wait(f"job-{i}")
        assert queue.get("job-first") is None
        queue.submit("job-first", lambda: calls.append(1))
        assert queue.wait("job-first").state is JobState.DONE
        assert calls == [1, 1]

    def test_depth_stays_exact_while_jobs_finish_and_retire(self, queue):
        release = threading.Event()
        held = [queue.submit(f"held-{i}", release.wait) for i in range(2)]
        queue.submit("queued", lambda: None)
        try:
            assert queue.depth() == occupancy(queued=1, running=2)
        finally:
            release.set()

        def boom():
            raise RuntimeError("no")

        for job in held:
            queue.wait(job.id)
        queue.wait("queued")
        for i in range(self.KEPT):
            queue.submit(f"bad-{i}", boom)
            queue.wait(f"bad-{i}")
        assert queue.depth() == occupancy(failed=self.KEPT)
        # Resubmitting a failed id moves it out of the failed count.
        queue.submit("bad-0", lambda: None)
        queue.wait("bad-0")
        assert queue.depth() == occupancy(done=1, failed=2)
        states = [job.state.value for job in queue._jobs.values()]
        assert sorted(states) == ["done", "failed", "failed"]

    def test_unfinished_jobs_are_never_retired(self, queue):
        """A just-submitted job stays waitable however many jobs finish meanwhile."""
        release = threading.Event()
        queue.submit("slow", release.wait)
        try:
            for i in range(3 * self.KEPT):
                queue.submit(f"job-{i}", lambda: None)
                queue.wait(f"job-{i}")
            assert queue.get("slow") is not None
        finally:
            release.set()
        assert queue.wait("slow").state is JobState.DONE
        assert queue.depth()["done"] == self.KEPT

    def test_shutdown_sweep_is_counted(self):
        queue = JobQueue(max_workers=1, max_pending=8)
        started, release = threading.Event(), threading.Event()
        queue.submit("running", lambda: started.set() or release.wait())
        assert started.wait(5.0)
        for i in range(2 * self.KEPT):
            queue.submit(f"stranded-{i}", lambda: None)
        queue.shutdown(wait=False)
        try:
            assert queue.depth() == occupancy(running=1, failed=self.KEPT)
        finally:
            release.set()
        queue.wait("running", timeout=5.0)
        assert queue.depth()["running"] == 0
        assert len(queue._jobs) == self.KEPT


def test_job_dataclass_defaults():
    job = Job(id="j")
    assert job.state is JobState.QUEUED
    assert job.started is None and job.finished is None and job.seconds is None


class TestShutdownWithBacklog:
    """Jobs stranded in the queue at shutdown must terminate, not hang.

    With ``cancel_futures=True`` the executor never runs the queued
    wrappers, so without the sweep those jobs stayed QUEUED forever and
    ``wait()`` on them spun until timeout.
    """

    def test_stranded_jobs_fail_terminally(self):
        queue = JobQueue(max_workers=1, max_pending=8)
        started = threading.Event()
        release = threading.Event()

        def blocker():
            started.set()
            release.wait()

        queue.submit("running", blocker)
        assert started.wait(5.0)
        # These never reach a worker before shutdown.
        queue.submit("stranded-1", lambda: None)
        queue.submit("stranded-2", lambda: None)

        queue.shutdown(wait=False)
        for job_id in ("stranded-1", "stranded-2"):
            job = queue.get(job_id)
            assert job.state is JobState.FAILED
            assert "shut down" in job.error
            assert job.finished is not None

        # The in-flight job is not swept: it finishes normally.
        release.set()
        assert queue.wait("running", timeout=5.0).state is JobState.DONE

    def test_a_waiter_on_a_swept_job_gets_the_failed_job(self):
        queue = JobQueue(max_workers=1, max_pending=8)
        started = threading.Event()
        release = threading.Event()

        def blocker():
            started.set()
            release.wait()

        queue.submit("running", blocker)
        assert started.wait(5.0)
        queue.submit("stranded", lambda: None)
        waited = []
        waiter = threading.Thread(
            target=lambda: waited.append(queue.wait("stranded", timeout=5.0))
        )
        waiter.start()
        try:
            queue.shutdown(wait=False)
            waiter.join(timeout=5.0)
            assert [job.state for job in waited] == [JobState.FAILED]
            assert "shut down" in waited[0].error
        finally:
            release.set()
        assert queue.wait("running", timeout=5.0).state is JobState.DONE


class TestSubmitAfterShutdown:
    """A job the pool refuses leaves no trace: no ghost QUEUED entry."""

    def test_a_refused_job_is_taken_back_out(self):
        queue = JobQueue(max_workers=1, max_pending=8)
        queue.shutdown()
        ran = []
        with pytest.raises(RuntimeError):
            queue.submit("late", lambda: ran.append(1))
        assert queue.depth() == occupancy()
        assert queue.get("late") is None
        # The id is not attached to a dead job: submitting again raises again.
        with pytest.raises(RuntimeError):
            queue.submit("late", lambda: ran.append(1))
        assert queue.depth() == occupancy()
        assert queue.get("late") is None
        assert ran == []
