"""SimulationService's shard workers: one warm pool per job thread.

Every test here forks real shard workers and bounds every wait.  The
fault-injection tests swap the trace engine factory for one that logs each
run segment and can end its worker with ``os._exit``; the swap happens
before the service forks any worker, so the forked workers carry it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import multiprocessing
import os
import sys
import threading
from pathlib import Path

from repro.analysis.tables import csv_text
from repro.engine.parallel import execute_shards
from repro.experiments import figures
from repro.experiments.base import ExperimentResult
from repro.scenarios.registry import get_scenario, register, unregister
from repro.scenarios.runner import run_scenario
from repro.serve import RunRequest, SimulationService

#: Upper bound, in seconds, on every wait in this module.
WAIT = 120
#: Population size whose run the fault factory kills.
KILL_N = 200
SMALL = {"n": 64, "trials": 16, "parallel_time": 20}

_real_factory = figures._trace_engine_factory


def _children() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


@contextlib.contextmanager
def _serving(cache_dir: Path, **kwargs):
    """A service closed on the way out, even after a failed bounded wait.

    A job blocked on its workers would hold ``close()`` forever; killing the
    workers first makes such a failure an error instead of a hang.
    """
    service = SimulationService(cache_dir, **kwargs)
    try:
        yield service
    except BaseException:
        for process in multiprocessing.active_children():
            process.kill()
        raise
    finally:
        service.close()


def _claim(path: Path) -> bool:
    """Create ``path`` holding this pid, unless it exists; True when created."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    return True


def _fault_factory(engine_name, rng, ensemble_trials, *, fault_dir, kill_at, **keywords):
    """The trace engine factory, logging every run segment to ``fault_dir/log``.

    The first segment of a ``KILL_N``-agent run that starts at parallel time
    ``kill_at`` or later ends its worker with exit code 70, once per
    ``fault_dir``; ``fault_dir/killed`` holds the dead worker's pid.
    """
    engine = _real_factory(engine_name, rng, ensemble_trials, **keywords)
    run, n = engine.run, keywords["n"]

    def logged_run(steps, **options):
        start = engine.parallel_time
        with open(Path(fault_dir) / "log", "a") as handle:
            handle.write(f"{os.getpid()} {n} {start}\n")
        if n == KILL_N and start >= kill_at and _claim(Path(fault_dir) / "killed"):
            os._exit(70)
        return run(steps, **options)

    engine.run = logged_run
    return engine


def _install_faults(monkeypatch, tmp_path: Path, *, kill_at: int) -> Path:
    fault_dir = tmp_path / "faults"
    fault_dir.mkdir()
    monkeypatch.setattr(
        figures,
        "_trace_engine_factory",
        functools.partial(_fault_factory, fault_dir=str(fault_dir), kill_at=kill_at),
    )
    return fault_dir


def _log(fault_dir: Path) -> list[tuple[int, int, int]]:
    """``(pid, n, segment start)`` per logged run segment, in write order."""
    path = fault_dir / "log"
    if not path.exists():
        return []
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


def _request(n: int) -> RunRequest:
    return RunRequest(
        scenario="oscillate",
        engine="ensemble",
        workers=2,
        overrides={"n": n, "parallel_time": 60, "trials": 16},
    )


def _pid_shard(payload):
    return os.getpid()


def test_a_service_starts_no_process_until_a_sharded_job_and_reaps_on_close(tmp_path):
    with _serving(tmp_path / "cache", max_workers=2) as service:
        assert _children() == set()
        run_id = service.submit(RunRequest(scenario="fig2", workers=2, overrides=SMALL))["run_id"]
        assert service.queue.wait(run_id, timeout=WAIT).state.value == "done"
        assert len(_children()) == 2, "the job thread keeps its two workers warm"
    assert _children() == set()


def test_concurrent_jobs_never_share_a_worker_process(tmp_path):
    barrier = threading.Barrier(2)
    pids: dict[int, set[int]] = {}

    def runner(spec, *, preset, options):
        barrier.wait(timeout=WAIT)  # two jobs at once, so two job threads
        results, _ = execute_shards(_pid_shard, [0, 1, 2, 3], workers=options.workers)
        pids[preset.seed] = set(results)
        barrier.wait(timeout=WAIT)  # both pools still hold their workers here
        return ExperimentResult(experiment="fig2", description="pids", rows=[{"n": 1}])

    with _serving(tmp_path / "cache", max_workers=2, scenario_runner=runner) as service:
        ids = [
            service.submit(RunRequest(scenario="fig2", seed=seed, workers=2, overrides=SMALL))[
                "run_id"
            ]
            for seed in (1, 2)
        ]
        for run_id in ids:
            assert service.queue.wait(run_id, timeout=WAIT).state.value == "done"
        assert len(_children()) == 4
    first, second = pids.values()
    assert first and second and not first & second
    assert _children() == set()


def test_more_job_threads_than_cores_return_the_serial_results(tmp_path):
    requests = [
        RunRequest(scenario="fig2", seed=seed, workers=2, overrides=SMALL) for seed in range(1, 7)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # job threads interleave far more often
    try:
        with _serving(tmp_path / "cache", max_workers=4) as service:
            ids = [service.submit(request)["run_id"] for request in requests]
            jobs = [service.queue.wait(run_id, timeout=WAIT) for run_id in ids]
            states = [job.state.value for job in jobs]
            assert states == ["done"] * len(ids), [job.error for job in jobs]
            served = [service.result_csv(run_id) for run_id in ids]
            resolved = [service.resolve(request)[:2] for request in requests]
    finally:
        sys.setswitchinterval(interval)
    assert _children() == set()
    # fig2 pins the batched engine, whose sharded runs equal the serial one.
    assert served == [csv_text(run_scenario(spec, preset=preset).rows) for spec, preset in resolved]


def test_a_sweep_over_a_scenario_registered_after_the_first_sharded_job(tmp_path):
    late = dataclasses.replace(get_scenario("fig2"), name="late_fig2", experiment_id="fig2")
    try:
        with _serving(tmp_path / "cache", max_workers=1) as service:
            first = service.submit(
                RunRequest(scenario="fig2", workers=2, overrides=SMALL)
            )["run_id"]
            assert service.queue.wait(first, timeout=WAIT).state.value == "done"
            register(late)
            sweep = RunRequest(
                scenario="late_fig2",
                workers=2,
                overrides={"trials": 2, "parallel_time": 20},
                sweep={"n": [32, 48]},
            )
            run_id = service.submit(sweep)["run_id"]
            job = service.queue.wait(run_id, timeout=WAIT)
            assert job.state.value == "done", job.error
            labels = [result["label"] for result in service.result_payload(run_id)["results"]]
            assert labels == ["n=32", "n=48"]
    finally:
        unregister("late_fig2")


def test_a_dead_worker_fails_only_its_job_and_names_the_worker(tmp_path, monkeypatch):
    fault_dir = _install_faults(monkeypatch, tmp_path, kill_at=0)
    barrier = threading.Barrier(2)

    def runner(spec, *, preset, options):
        barrier.wait(timeout=WAIT)  # the two jobs run at once
        return run_scenario(spec, preset=preset, options=options)

    with _serving(tmp_path / "cache", max_workers=2, scenario_runner=runner) as service:
        killed = service.submit(_request(KILL_N))["run_id"]
        bystander = service.submit(_request(KILL_N + 8))["run_id"]
        failed = service.queue.wait(killed, timeout=WAIT)
        assert service.queue.wait(bystander, timeout=WAIT).state.value == "done"
        assert service.result_payload(bystander)["results"][0]["rows"]
    assert _children() == set()
    dead = int((fault_dir / "killed").read_text())
    assert failed.state.value == "failed"
    assert failed.error.startswith("WorkerDiedError: ")
    assert f"{dead} (exit code 70)" in failed.error


def test_a_killed_checkpointed_request_resumes_and_the_next_job_gets_fresh_workers(
    tmp_path, monkeypatch
):
    fault_dir = _install_faults(monkeypatch, tmp_path, kill_at=20)
    request = _request(KILL_N)
    with _serving(tmp_path / "cache", max_workers=1, checkpoint_every=20) as service:
        run_id = service.submit(request)["run_id"]
        failed = service.queue.wait(run_id, timeout=WAIT)
        assert failed.state.value == "failed"
        assert failed.error.startswith("WorkerDiedError: ")
        old_workers = {pid for pid, _, _ in _log(fault_dir)}
        assert int((fault_dir / "killed").read_text()) in old_workers
        checkpoints = tmp_path / "cache" / "checkpoints" / run_id
        assert list(checkpoints.rglob("shard_*.ckpt")), "the dead shard checkpointed first"

        # The next sharded request on the same job thread runs on fresh workers.
        other = service.submit(_request(KILL_N + 16))["run_id"]
        assert service.queue.wait(other, timeout=WAIT).state.value == "done"
        other_workers = {pid for pid, n, _ in _log(fault_dir) if n == KILL_N + 16}
        assert other_workers and not other_workers & old_workers

        # Resubmitted, the killed request resumes from its shard checkpoints.
        logged = len(_log(fault_dir))
        service.submit(request)
        job = service.queue.wait(run_id, timeout=WAIT)
        assert job.state.value == "done", job.error
        starts = [start for _, _, start in _log(fault_dir)[logged:]]
        assert starts.count(0) < 2, "a shard continued from its checkpoint"
        resumed_rows = service.result_payload(run_id)["results"][0]["rows"]

    with _serving(tmp_path / "plain", max_workers=1) as plain:
        assert plain.submit(request)["run_id"] == run_id
        assert plain.queue.wait(run_id, timeout=WAIT).state.value == "done"
        assert resumed_rows == plain.result_payload(run_id)["results"][0]["rows"]
    assert _children() == set()
