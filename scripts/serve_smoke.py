"""End-to-end smoke test for the ``repro.serve`` HTTP service.

Starts a real uvicorn server, submits a quick scenario run over HTTP, polls
it to completion, fetches the result, then re-submits the identical request
and asserts it is answered from the content-addressed cache
(``cached: true``, same run id, byte-identical result body) without
re-simulation.  Exercises exactly the loop a CI job or a colleague's laptop
would: two identical requests, one simulation.  Then it runs two distinct
``"workers": 2`` requests one after the other, so one job thread's warm
shard pool serves both sharded jobs.

Needs the ``[serve]`` extra (fastapi + uvicorn + httpx)::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import tempfile
import time

import httpx

REQUEST = {
    "scenario": "fig2",
    "effort": "quick",
    "overrides": {"n": 64, "trials": 2, "parallel_time": 30},
}
#: 16 trials make two row-shards, one per worker.
SHARDED = [
    {
        "scenario": "fig2",
        "effort": "quick",
        "seed": seed,
        "workers": 2,
        "overrides": {"n": 64, "trials": 16, "parallel_time": 30},
    }
    for seed in (1, 2)
]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for(predicate, *, timeout: float, what: str, poll: float = 0.2):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value is not None:
            return value
        time.sleep(poll)
    raise TimeoutError(f"timed out after {timeout:.0f}s waiting for {what}")


def main() -> int:
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    cache_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    env = dict(os.environ, REPRO_SERVE_CACHE_DIR=cache_dir)
    env["PYTHONPATH"] = env.get("PYTHONPATH", "src")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "uvicorn",
            "--factory",
            "repro.serve.app:create_app",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--log-level",
            "warning",
        ],
        env=env,
    )
    try:
        with httpx.Client(base_url=base, timeout=10.0) as client:

            def healthy():
                with contextlib.suppress(httpx.TransportError):
                    if client.get("/healthz").status_code == 200:
                        return True
                return None

            wait_for(healthy, timeout=30, what="the server to come up")
            print(f"server up on {base}")

            def run_to_completion(request):
                response = client.post("/runs", json=request)
                assert response.status_code == 202, (response.status_code, response.text)
                submission = response.json()
                assert submission["cached"] is False, submission
                run_id = submission["run_id"]
                print(f"submitted run {run_id[:12]}... (cache miss, enqueued)")

                def done():
                    status = client.get(f"/runs/{run_id}").json()
                    if status["state"] == "failed":
                        raise RuntimeError(f"run failed: {status['error']}")
                    return status if status["state"] == "done" else None

                status = wait_for(done, timeout=180, what="the run to finish")
                print(f"run finished in {status['seconds']:.2f}s")
                return run_id

            run_id = run_to_completion(REQUEST)

            body = client.get(f"/runs/{run_id}/result")
            assert body.status_code == 200, body.text
            rows = body.json()["results"][0]["rows"]
            assert rows, "a finished run must have result rows"
            print(f"fetched {len(rows)} result row(s)")

            repeat = client.post("/runs", json=REQUEST)
            assert repeat.status_code == 200, (repeat.status_code, repeat.text)
            payload = repeat.json()
            assert payload["cached"] is True, payload
            assert payload["run_id"] == run_id, payload
            repeat_body = client.get(f"/runs/{run_id}/result")
            assert repeat_body.content == body.content, "cached body must be byte-identical"
            print("re-submission answered from cache with an identical body")

            csv = client.get(f"/runs/{run_id}/result", params={"format": "csv"})
            assert csv.status_code == 200
            assert csv.headers["content-type"].startswith("text/csv")
            print("CSV export ok")

            # Sequential jobs land on the same idle job thread, so the second
            # sharded run reuses the first one's workers.
            for request in SHARDED:
                sharded = run_to_completion(request)
                result = client.get(f"/runs/{sharded}/result").json()["results"][0]
                assert result["rows"], "a sharded run must have result rows"
                timings = result["metadata"]["shard_timings"]
                assert [len(shards) for shards in timings.values()] == [2], timings
            print("two sharded runs ok; smoke test passed")
            return 0
    finally:
        server.terminate()
        with contextlib.suppress(subprocess.TimeoutExpired):
            server.wait(timeout=10)
        if server.poll() is None:  # pragma: no cover - stubborn server
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
