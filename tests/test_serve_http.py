"""HTTP layer over the serving core — needs the ``[serve]`` extra.

These tests are skipped in the plain test matrix (fastapi is not installed
there; the matrix asserts that) and run in the dedicated ``serve`` CI job.
Runners are faked so the suite exercises the transport, not the simulator;
one end-to-end test at the bottom drives a real quick scenario through the
full HTTP round-trip.
"""

from __future__ import annotations

import threading

import pytest

fastapi = pytest.importorskip("fastapi")

from fastapi.testclient import TestClient  # noqa: E402

from repro.experiments.base import ExperimentResult  # noqa: E402
from repro.serve import availability, create_app  # noqa: E402
from repro.serve.service import SimulationService  # noqa: E402

QUICK = {"n": 64, "trials": 2, "parallel_time": 30}


def fake_result(tag: str = "http") -> ExperimentResult:
    return ExperimentResult(
        experiment="fig2",
        description=f"fake {tag}",
        rows=[{"n": 64, "estimate": 6.0}],
        metadata={"preset": "quick"},
    )


class Recorder:
    def __init__(self, *, gate: threading.Event | None = None):
        self.calls = 0
        self.gate = gate

    def run_scenario(self, spec, *, preset, options=None):
        self.calls += 1
        if self.gate is not None:
            self.gate.wait(timeout=30)
        return fake_result(f"call{self.calls}")

    def run_sweep(self, sweep, *, preset, options=None):
        self.calls += 1
        return [(label, fake_result(label)) for label, _ in sweep.expand(preset)]


@pytest.fixture
def stack(tmp_path):
    recorder = Recorder()
    service = SimulationService(
        tmp_path / "cache",
        scenario_runner=recorder.run_scenario,
        sweep_runner=recorder.run_sweep,
    )
    with TestClient(create_app(service)) as client:
        yield client, service, recorder
    service.close()


def submit(client, **extra):
    body = {"scenario": "fig2", "effort": "quick", "overrides": QUICK}
    body.update(extra)
    return client.post("/runs", json=body)


class TestSubmitAndPoll:
    def test_miss_enqueues_202_then_hit_answers_200(self, stack):
        client, service, recorder = stack
        first = submit(client)
        assert first.status_code == 202
        payload = first.json()
        assert payload["cached"] is False
        run_id = payload["run_id"]
        service.queue.wait(run_id)
        status = client.get(f"/runs/{run_id}")
        assert status.status_code == 200
        assert status.json()["state"] == "done"
        second = submit(client)
        assert second.status_code == 200
        assert second.json()["cached"] is True
        assert second.json()["run_id"] == run_id
        assert recorder.calls == 1, "the repeat must be served from cache"

    def test_repeat_result_bodies_are_byte_identical(self, stack):
        client, service, _ = stack
        run_id = submit(client).json()["run_id"]
        service.queue.wait(run_id)
        a = client.get(f"/runs/{run_id}/result")
        b = client.get(f"/runs/{run_id}/result")
        assert a.status_code == b.status_code == 200
        assert a.content == b.content
        assert a.json()["results"][0]["rows"] == [{"n": 64, "estimate": 6.0}]

    def test_csv_format(self, stack):
        client, service, _ = stack
        run_id = submit(client).json()["run_id"]
        service.queue.wait(run_id)
        response = client.get(f"/runs/{run_id}/result", params={"format": "csv"})
        assert response.status_code == 200
        assert response.headers["content-type"].startswith("text/csv")
        header, row = response.text.splitlines()[:2]
        assert header == "n,estimate"
        assert row == "64,6.0"


class TestErrorMapping:
    def test_unknown_run_is_404(self, stack):
        client, _, _ = stack
        assert client.get("/runs/" + "0" * 64).status_code == 404
        assert client.get("/runs/" + "0" * 64 + "/result").status_code == 404

    def test_bad_request_is_422_before_any_work(self, stack):
        client, _, recorder = stack
        assert submit(client, scenario="nope").status_code == 422
        assert submit(client, effort="heroic").status_code == 422
        assert submit(client, engine="warp").status_code == 422
        assert submit(client, workers=0).status_code == 422
        assert recorder.calls == 0

    def test_unknown_field_is_422_not_dropped(self, stack):
        # The compiled backend and its `jit` field are gone; an old client
        # asking for it is told so instead of silently running without it.
        client, _, recorder = stack
        response = submit(client, jit=True)
        assert response.status_code == 422
        assert "jit" in response.text
        assert submit(client, warp_speed=9).status_code == 422
        assert recorder.calls == 0

    def test_pending_result_is_409(self, tmp_path):
        gate = threading.Event()
        recorder = Recorder(gate=gate)
        service = SimulationService(
            tmp_path / "cache",
            scenario_runner=recorder.run_scenario,
            sweep_runner=recorder.run_sweep,
        )
        try:
            with TestClient(create_app(service)) as client:
                run_id = submit(client).json()["run_id"]
                assert client.get(f"/runs/{run_id}/result").status_code == 409
                gate.set()
                service.queue.wait(run_id)
                assert client.get(f"/runs/{run_id}/result").status_code == 200
        finally:
            gate.set()
            service.close()

    def test_failed_job_is_500(self, tmp_path):
        def explode(spec, *, preset, options=None):
            raise RuntimeError("doom")

        service = SimulationService(tmp_path / "cache", scenario_runner=explode)
        try:
            with TestClient(create_app(service)) as client:
                run_id = submit(client).json()["run_id"]
                service.queue.wait(run_id)
                assert client.get(f"/runs/{run_id}").json()["state"] == "failed"
                response = client.get(f"/runs/{run_id}/result")
                assert response.status_code == 500
                assert "doom" in response.json()["detail"]
        finally:
            service.close()

    def test_full_queue_is_429(self, tmp_path):
        gate = threading.Event()
        recorder = Recorder(gate=gate)
        service = SimulationService(
            tmp_path / "cache",
            scenario_runner=recorder.run_scenario,
            sweep_runner=recorder.run_sweep,
            max_workers=1,
            max_pending=1,
        )
        try:
            with TestClient(create_app(service)) as client:
                submit(client)
                import time

                deadline = time.monotonic() + 5
                while service.queue.depth()["running"] == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                submit(client, seed=1)
                assert submit(client, seed=2).status_code == 429
        finally:
            gate.set()
            service.close()


class TestIntrospection:
    def test_scenarios_matches_cli_listing(self, stack):
        client, _, _ = stack
        from repro.scenarios.listing import scenario_listing

        assert client.get("/scenarios").json() == scenario_listing()

    def test_healthz(self, stack):
        client, _, _ = stack
        health = client.get("/healthz").json()
        assert health["status"] == "ok"
        assert health["serve"]["enabled"] is True
        assert {"pending", "running"} <= set(health["queue"])
        assert {"entries", "hits"} <= set(health["cache"])
        assert "jit" not in health


class TestAvailabilityGate:
    def test_probe_reports_enabled_here(self):
        status = availability()
        assert status.enabled is True
        assert status.fastapi_version


class TestEndToEnd:
    """One real simulation through the full HTTP path."""

    def test_real_quick_run_and_cache_hit(self, tmp_path):
        service = SimulationService(tmp_path / "cache", max_workers=1)
        try:
            with TestClient(create_app(service)) as client:
                first = submit(client)
                assert first.status_code == 202
                run_id = first.json()["run_id"]
                job = service.queue.wait(run_id, timeout=300)
                assert job.state.value == "done", job.error
                result = client.get(f"/runs/{run_id}/result").json()
                rows = result["results"][0]["rows"]
                assert rows and "log2_n" in rows[0]
                repeat = submit(client)
                assert repeat.status_code == 200
                assert repeat.json()["cached"] is True
        finally:
            service.close()
