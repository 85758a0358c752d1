"""SimulationService: validation, caching, single-flight, failure mapping.

Most tests inject fake runners (instant, countable) so they exercise the
serving logic, not the simulator; two end-to-end tests at the bottom run the
real ``run_scenario``/``run_sweep`` path on a tiny workload.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time

import pytest

from repro.engine.errors import ConfigurationError, UnsupportedEngineError
from repro.experiments.base import ExperimentResult
from repro.scenarios.registry import scenario_names
from repro.scenarios.listing import scenario_listing
from repro.serve import cache as cache_module
from repro.serve import jobs as jobs_module
from repro.serve import (
    JobFailedError,
    JobPendingError,
    QueueFullError,
    RunRequest,
    SimulationService,
    UnknownRunError,
)

QUICK = {"n": 64, "trials": 2, "parallel_time": 30}


def tiny_result(tag: str = "fake") -> ExperimentResult:
    return ExperimentResult(
        experiment="fig2",
        description=f"fake result {tag}",
        rows=[{"n": 64, "estimate": 6.0}],
        metadata={"preset": "quick", "engine": "batched"},
    )


class Recorder:
    """Countable fake runners with an optional gate for concurrency tests."""

    def __init__(self, *, gate: threading.Event | None = None, fail: bool = False):
        self.calls = []
        self.gate = gate
        self.fail = fail

    def run_scenario(self, spec, *, preset, options=None):
        self.calls.append(("scenario", spec.name, preset.population_sizes))
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if self.fail:
            raise RuntimeError("simulated meltdown")
        return tiny_result(f"call{len(self.calls)}")

    def run_sweep(self, sweep, *, preset, options=None):
        self.calls.append(("sweep", sweep.scenario))
        return [
            (label, tiny_result(label)) for label, _ in sweep.expand(preset)
        ]


def make_service(tmp_path, recorder=None, **kwargs):
    recorder = recorder or Recorder()
    service = SimulationService(
        tmp_path / "cache",
        scenario_runner=recorder.run_scenario,
        sweep_runner=recorder.run_sweep,
        **kwargs,
    )
    return service, recorder


def request(**overrides) -> RunRequest:
    data = dict(scenario="fig2", effort="quick", overrides=QUICK)
    data.update(overrides)
    return RunRequest(**data)


class TestValidation:
    """Bad requests are rejected before admission — no job, no simulation."""

    def test_unknown_scenario(self, tmp_path):
        service, recorder = make_service(tmp_path)
        with pytest.raises(ConfigurationError):
            service.submit(request(scenario="not_a_scenario"))
        assert recorder.calls == []

    def test_unknown_effort(self, tmp_path):
        service, _ = make_service(tmp_path)
        with pytest.raises(ConfigurationError):
            service.submit(request(effort="heroic"))

    # "array" names the removed exact array engine.
    @pytest.mark.parametrize("unknown", ("warp", "array"))
    def test_unknown_engine(self, tmp_path, unknown):
        service, recorder = make_service(tmp_path)
        with pytest.raises(ConfigurationError):
            service.submit(request(engine=unknown))
        assert recorder.calls == []

    def test_unsupported_engine(self, tmp_path):
        service, _ = make_service(tmp_path)
        # The memory table is a bespoke recorder workload pinned to the
        # sequential engine.
        with pytest.raises(UnsupportedEngineError):
            service.submit(RunRequest(scenario="memory", engine="ensemble"))

    def test_bespoke_executor_rejects_workers(self, tmp_path):
        # The memory table runs serially on its own executor: a workers
        # request is refused at admission, not ignored by the run.
        service, recorder = make_service(tmp_path)
        with pytest.raises(ConfigurationError, match="cannot honour workers"):
            service.submit(RunRequest(scenario="memory", workers=2))
        assert recorder.calls == []
        assert sum(service.queue.depth().values()) == 0

    @pytest.mark.parametrize("scenario", ["memory", "phase_clock", "baseline"])
    def test_bespoke_executor_rejects_workers_on_a_one_combination_sweep(
        self, tmp_path, scenario
    ):
        # One combination runs as a single run, which cannot shard over
        # workers: refused at admission like a plain run, not failed as a job.
        service, recorder = make_service(tmp_path)
        try:
            with pytest.raises(ConfigurationError, match="cannot honour workers$"):
                service.submit(
                    RunRequest(scenario=scenario, sweep={"trials": [2]}, workers=2)
                )
            assert recorder.calls == []
            assert sum(service.queue.depth().values()) == 0
        finally:
            service.close()

    @pytest.mark.parametrize("scenario", ["memory", "phase_clock", "baseline"])
    def test_bespoke_executor_admits_workers_on_a_sweep_of_several_combinations(
        self, tmp_path, scenario
    ):
        # Several combinations fan out over the workers, each run serially.
        service, recorder = make_service(tmp_path)
        try:
            run_id = service.submit(
                RunRequest(scenario=scenario, sweep={"trials": [1, 2]}, workers=2)
            )["run_id"]
            service.queue.wait(run_id)
            assert service.status(run_id)["state"] == "done"
            assert recorder.calls == [("sweep", scenario)]
        finally:
            service.close()

    def test_one_combination_sweep_of_a_point_scenario_keeps_workers(self, tmp_path):
        # Only bespoke executors refuse workers; a point scenario shards the
        # one combination's trials.
        service, recorder = make_service(tmp_path)
        try:
            run_id = service.submit(
                request(overrides=None, sweep={"n": [64]}, workers=2)
            )["run_id"]
            service.queue.wait(run_id)
            assert service.status(run_id)["state"] == "done"
            assert recorder.calls == [("sweep", "fig2")]
        finally:
            service.close()

    def test_bad_workers(self, tmp_path):
        service, _ = make_service(tmp_path)
        with pytest.raises(ConfigurationError):
            service.submit(request(workers=0))
        with pytest.raises(ConfigurationError):
            service.submit(request(workers="turbo"))

    def test_bad_override_values(self, tmp_path):
        service, _ = make_service(tmp_path)
        with pytest.raises(ConfigurationError):
            service.submit(request(overrides={"n": 1}))  # population too small

    def test_bad_sweep_axis(self, tmp_path):
        service, _ = make_service(tmp_path)
        with pytest.raises(ConfigurationError):
            service.submit(request(sweep={"n": []}))


class TestLifecycle:
    def test_miss_then_hit(self, tmp_path):
        service, recorder = make_service(tmp_path)
        try:
            first = service.submit(request())
            assert first["cached"] is False
            run_id = first["run_id"]
            service.queue.wait(run_id)
            status = service.status(run_id)
            assert status["state"] == "done"
            assert status["seconds"] is not None
            second = service.submit(request())
            assert second["cached"] is True
            assert second["run_id"] == run_id
            assert len(recorder.calls) == 1, "the repeat must not re-simulate"
        finally:
            service.close()

    def test_result_payload_is_byte_identical_across_fetches(self, tmp_path):
        service, _ = make_service(tmp_path)
        try:
            run_id = service.submit(request())["run_id"]
            service.queue.wait(run_id)
            a = json.dumps(service.result_payload(run_id), sort_keys=True)
            service.submit(request())  # a cache hit in between must not disturb
            b = json.dumps(service.result_payload(run_id), sort_keys=True)
            assert a == b
        finally:
            service.close()

    def test_result_csv_matches_artifact_bytes(self, tmp_path):
        service, _ = make_service(tmp_path)
        try:
            run_id = service.submit(request())["run_id"]
            service.queue.wait(run_id)
            csv_body = service.result_csv(run_id)
            entry = service.cache.get(run_id)
            artifact = next(entry.path.rglob("rows.csv")).read_bytes()
            assert csv_body.encode() == artifact
            with pytest.raises(UnknownRunError):
                service.result_csv(run_id, index=5)
        finally:
            service.close()

    def test_distinct_requests_get_distinct_runs(self, tmp_path):
        service, recorder = make_service(tmp_path)
        try:
            a = service.submit(request())["run_id"]
            b = service.submit(request(seed=123))["run_id"]
            c = service.submit(request(workers=2))["run_id"]
            assert len({a, b, c}) == 3
            for run_id in (a, b, c):
                service.queue.wait(run_id)
            assert len(recorder.calls) == 3
        finally:
            service.close()

    def test_a_retired_run_reports_done_from_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", 2)
        service, recorder = make_service(tmp_path)
        try:
            ids = []
            for seed in range(5):
                run_id = service.submit(request(seed=seed))["run_id"]
                assert service.queue.wait(run_id).state.value == "done"
                ids.append(run_id)
            assert service.queue.get(ids[0]) is None
            assert service.queue.depth()["done"] == 2
            assert service.status(ids[0]) == {"run_id": ids[0], "state": "done", "cached": True}
            assert service.result_payload(ids[0])["run_id"] == ids[0]
            assert service.submit(request(seed=0))["cached"] is True
            assert len(recorder.calls) == 5
        finally:
            service.close()

    def test_sweep_request_runs_sweep_and_caches_combos(self, tmp_path):
        service, recorder = make_service(tmp_path)
        try:
            req = request(overrides=None, sweep={"n": [32, 64], "trials": [2]})
            run_id = service.submit(req)["run_id"]
            service.queue.wait(run_id)
            payload = service.result_payload(run_id)
            assert payload["kind"] == "sweep"
            assert [r["label"] for r in payload["results"]] == [
                "n=32,trials=2",
                "n=64,trials=2",
            ]
            assert service.submit(req)["cached"] is True
            assert len(recorder.calls) == 1
        finally:
            service.close()


class TestFailuresAndEdges:
    def test_unknown_run_everywhere(self, tmp_path):
        service, _ = make_service(tmp_path)
        try:
            missing = "0" * 64
            with pytest.raises(UnknownRunError):
                service.status(missing)
            with pytest.raises(UnknownRunError):
                service.result_payload(missing)
            with pytest.raises(UnknownRunError):
                service.status("not-even-a-key")
        finally:
            service.close()

    def test_pending_result_raises_pending(self, tmp_path):
        gate = threading.Event()
        service, _ = make_service(tmp_path, Recorder(gate=gate))
        try:
            run_id = service.submit(request())["run_id"]
            with pytest.raises(JobPendingError):
                service.result_payload(run_id)
            gate.set()
            service.queue.wait(run_id)
            assert service.result_payload(run_id)["run_id"] == run_id
        finally:
            gate.set()
            service.close()

    def test_failed_job_reports_and_is_resubmittable(self, tmp_path):
        recorder = Recorder(fail=True)
        service, _ = make_service(tmp_path, recorder)
        try:
            run_id = service.submit(request())["run_id"]
            job = service.queue.wait(run_id)
            assert job.state.value == "failed"
            assert "simulated meltdown" in service.status(run_id)["error"]
            with pytest.raises(JobFailedError):
                service.result_payload(run_id)
            # The failure is not cached: a resubmission re-runs.
            recorder.fail = False
            assert service.submit(request())["cached"] is False
            service.queue.wait(run_id)
            assert service.result_payload(run_id)["run_id"] == run_id
            assert len(recorder.calls) == 2
        finally:
            service.close()

    def test_queue_full_propagates(self, tmp_path):
        gate = threading.Event()
        service, _ = make_service(
            tmp_path, Recorder(gate=gate), max_workers=1, max_pending=1
        )
        try:
            service.submit(request())  # occupies the worker
            deadline = time.monotonic() + 5
            while service.queue.depth()["running"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            service.submit(request(seed=1))  # fills the pending slot
            with pytest.raises(QueueFullError):
                service.submit(request(seed=2))
        finally:
            gate.set()
            service.close()

    def test_corrupted_cache_entry_reruns_and_overwrites(self, tmp_path):
        service, recorder = make_service(tmp_path)
        try:
            run_id = service.submit(request())["run_id"]
            service.queue.wait(run_id)
            entry = service.cache.get(run_id)
            csv_path = next(entry.path.rglob("rows.csv"))
            csv_path.write_bytes(csv_path.read_bytes()[:5])
            # The corrupt entry is a miss -> single-flight would return the
            # DONE job; a fresh service (new process) re-runs cleanly.
            assert service.cache.get(run_id) is None
            resubmit = service.submit(request())
            assert resubmit["cached"] is False
            service.queue.wait(run_id)
            # The queue deduped on the DONE job, so force the work manually:
            # a second fresh submission must find a usable entry again.
            payload_state = service.status(run_id)
            assert payload_state["state"] == "done"
        finally:
            service.close()


class TestCacheReads:
    def test_only_the_result_fetch_parses_artifacts(self, tmp_path, monkeypatch):
        service, _ = make_service(tmp_path)
        loads = []
        original = ExperimentResult.load.__func__
        monkeypatch.setattr(
            ExperimentResult,
            "load",
            classmethod(lambda cls, path: loads.append(path) or original(cls, path)),
        )
        try:
            run_id = service.submit(request())["run_id"]
            service.queue.wait(run_id)
            assert loads == [], "a miss writes its entry without parsing it back"
            assert service.submit(request())["cached"] is True
            assert loads == [], "admission verifies the entry without parsing it"
            service.result_payload(run_id)
            assert len(loads) == 1
        finally:
            service.close()

    def test_a_corrupt_entry_is_purged_at_admission_and_the_request_runs(self, tmp_path):
        service, recorder = make_service(tmp_path)
        try:
            run_id = service.submit(request())["run_id"]
            service.queue.wait(run_id)
            csv_path = next(service.cache.get(run_id).path.rglob("rows.csv"))
        finally:
            service.close()
        csv_path.write_bytes(csv_path.read_bytes()[:5])
        # A second service on the same cache has no job table to dedupe on.
        # The gate holds its job until the purge is checked: a finished job
        # would already have written the entry back.
        recorder.gate = threading.Event()
        again, _ = make_service(tmp_path, recorder)
        try:
            status = again.submit(request())
            assert status["cached"] is False and run_id not in again.cache.keys()
            recorder.gate.set()
            assert again.queue.wait(run_id).state.value == "done"
            assert len(recorder.calls) == 2
            assert again.submit(request())["cached"] is True
        finally:
            again.close()

    def test_a_finished_job_references_no_experiment_result(self, tmp_path):
        import gc

        service, _ = make_service(tmp_path)
        try:
            run_id = service.submit(request())["run_id"]
            job = service.queue.wait(run_id)
            assert job.value == run_id
            seen, frontier = {id(job)}, [job]
            while frontier:
                obj = frontier.pop()
                assert not isinstance(obj, ExperimentResult)
                for child in gc.get_referents(obj):
                    if id(child) not in seen and not isinstance(child, type):
                        seen.add(id(child))
                        frontier.append(child)
        finally:
            service.close()


class _PublishFails:
    """``os`` as the cache module sees it, with its first publish rename failing."""

    def __init__(self) -> None:
        self.failed = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def rename(self, src, dst):
        if not self.failed:
            self.failed += 1
            raise OSError(errno.EIO, "injected publish failure", str(dst))
        return os.rename(src, dst)


class TestCachePublishFailure:
    def test_failed_publish_fails_the_job_and_a_resubmission_serves(self, tmp_path, monkeypatch):
        publish = _PublishFails()
        monkeypatch.setattr(cache_module, "os", publish)
        service, recorder = make_service(tmp_path)
        try:
            run_id = service.submit(request())["run_id"]
            job = service.queue.wait(run_id)
            assert publish.failed == 1
            assert job.state.value == "failed"
            target = service.cache._entry_dir(run_id)
            assert job.error == f"OSError: [Errno {errno.EIO}] injected publish failure: '{target}'"
            assert list(service.cache._staging.iterdir()) == []
            assert service.cache.keys() == []
            assert not service.cache.contains(run_id)
            with pytest.raises(JobFailedError):
                service.result_payload(run_id)

            again = service.submit(request())
            assert again["run_id"] == run_id and again["cached"] is False
            assert service.queue.wait(run_id).state.value == "done"
            assert len(recorder.calls) == 2
            assert service.result_payload(run_id)["results"][0]["rows"] == tiny_result().rows
            assert service.submit(request())["cached"] is True
            assert list(service.cache._staging.iterdir()) == []
        finally:
            service.close()


class TestConcurrentIdenticalSubmissions:
    def test_two_simultaneous_identical_submissions_one_simulation(self, tmp_path):
        gate = threading.Event()
        recorder = Recorder(gate=gate)
        service, _ = make_service(tmp_path, recorder)
        try:
            results = []
            barrier = threading.Barrier(2)

            def submitter():
                barrier.wait()
                results.append(service.submit(request()))

            threads = [threading.Thread(target=submitter) for _ in range(2)]
            for t in threads:
                t.start()
            gate.set()
            for t in threads:
                t.join()
            ids = {payload["run_id"] for payload in results}
            assert len(ids) == 1, "identical requests share one run id"
            run_id = ids.pop()
            service.queue.wait(run_id)
            assert len(recorder.calls) == 1, "exactly one simulation ran"
            # ... and both subsequent fetches hit bit-identical payloads.
            a = json.dumps(service.result_payload(run_id), sort_keys=True)
            b = json.dumps(service.result_payload(run_id), sort_keys=True)
            assert a == b
            assert service.submit(request())["cached"] is True
        finally:
            gate.set()
            service.close()


class TestIntrospection:
    def test_scenarios_shared_with_cli_listing(self, tmp_path):
        service, _ = make_service(tmp_path)
        try:
            listing = service.scenarios()
            assert listing == scenario_listing()
            assert [entry["name"] for entry in listing] == scenario_names()
        finally:
            service.close()

    def test_health_shape(self, tmp_path):
        service, _ = make_service(tmp_path)
        try:
            health = service.health()
            assert health["status"] == "ok"
            names = {engine["name"] for engine in health["engines"]}
            assert {"sequential", "batched", "ensemble", "counts"} <= names
            assert "array" not in names
            for engine in health["engines"]:
                assert "supports_trials" in engine and "builder" not in engine
                assert "supports_jit" not in engine
                assert "supports_adversary" not in engine
            assert set(health["queue"]) >= {"pending", "running", "done", "failed"}
            assert set(health["cache"]) >= {"entries", "bytes", "hits", "misses"}
            assert set(health) == {"status", "engines", "serve", "queue", "cache"}
            assert isinstance(health["serve"]["enabled"], bool)
            assert json.loads(json.dumps(health))  # JSON-encodable throughout
        finally:
            service.close()


class TestRealRunners:
    """End-to-end on the real run_scenario/run_sweep path (tiny workloads)."""

    def test_real_scenario_roundtrip_and_hit(self, tmp_path):
        service = SimulationService(tmp_path / "cache", max_workers=1)
        try:
            first = service.submit(request())
            assert first["cached"] is False
            run_id = first["run_id"]
            job = service.queue.wait(run_id, timeout=300)
            assert job.state.value == "done", job.error
            payload = service.result_payload(run_id)
            rows = payload["results"][0]["rows"]
            assert rows and {"n", "log2_n"} <= set(rows[0])
            execution = payload["results"][0]["metadata"]["execution"]
            assert execution["engine"] in execution["engines"]
            hit = service.submit(request())
            assert hit["cached"] is True and hit["run_id"] == run_id
        finally:
            service.close()

    def test_real_sweep_roundtrip(self, tmp_path):
        service = SimulationService(tmp_path / "cache", max_workers=1)
        try:
            req = request(
                overrides={"parallel_time": 25, "trials": 1},
                sweep={"n": [32, 48]},
            )
            run_id = service.submit(req)["run_id"]
            job = service.queue.wait(run_id, timeout=300)
            assert job.state.value == "done", job.error
            payload = service.result_payload(run_id)
            assert payload["kind"] == "sweep"
            assert [r["label"] for r in payload["results"]] == ["n=32", "n=48"]
            assert service.submit(req)["cached"] is True
        finally:
            service.close()

    def test_checkpointing_service_stores_identical_rows(self, tmp_path):
        # Checkpointing changes durability, never results: the run id and
        # the stored rows match a service without checkpointing.
        req = RunRequest(
            scenario="oscillate",
            engine="ensemble",
            overrides={"n": 200, "parallel_time": 40, "trials": 4},
        )
        rows = []
        run_ids = []
        for name, checkpoint_every in (("plain", None), ("checkpointed", 20)):
            service = SimulationService(
                tmp_path / name, max_workers=1, checkpoint_every=checkpoint_every
            )
            try:
                run_id = service.submit(req)["run_id"]
                job = service.queue.wait(run_id, timeout=300)
                assert job.state.value == "done", job.error
                run_ids.append(run_id)
                rows.append(service.result_payload(run_id)["results"][0]["rows"])
            finally:
                service.close()
        assert run_ids[0] == run_ids[1]
        assert rows[0] == rows[1]

    def test_checkpointing_service_serves_bespoke_executor_scenarios(self, tmp_path):
        # The service's checkpoint cadence is its durability policy, not part
        # of the request: a scenario that cannot checkpoint runs without it.
        service = SimulationService(tmp_path / "cache", max_workers=1, checkpoint_every=20)
        try:
            req = RunRequest(
                scenario="memory", overrides={"n": 50, "parallel_time": 15, "trials": 1}
            )
            run_id = service.submit(req)["run_id"]
            job = service.queue.wait(run_id, timeout=300)
            assert job.state.value == "done", job.error
            assert service.result_payload(run_id)["results"][0]["rows"]
        finally:
            service.close()
