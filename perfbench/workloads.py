"""The three benchmark workloads, built from a workload seed.

Each workload is built once per process (its set-up), warmed up on tiny
inputs, then run pass after pass.  A pass is a fixed list of operations;
the seed changes the inputs (scenario seeds, the serve script) but never
the amount of work, so passes of different seeds are comparable.

* ``per_agent`` — the paper figures and three adversarial scenarios through
  ``run_scenario`` on the per-agent engines (``batched``, ``ensemble``).
* ``counts_million`` — two adversarial scenarios at n = 10^6, where the
  engine choice lands on the ``counts`` engine.
* ``serve_mixed`` — a closed loop of one client against one
  ``SimulationService``; repeated requests are cache hits, the rest misses
  that run two shards on a process pool and write checkpoints.

Before its first operation and after each one a pass times a fixed
reference computation (:func:`reference_seconds`): samples of the host's
speed while the pass ran.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from repro.scenarios import runner as scenario_runner
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import resolve_params, resolve_preset
from repro.serve.service import RunRequest, SimulationService

import oracle


#: Size of the reference computation: interpreter loop steps and NumPy sorts.
REFERENCE_LOOP = 300_000
REFERENCE_SORTS = 4
_REFERENCE_ARRAY = np.random.default_rng(0).random(100_000)


def reference_seconds() -> float:
    """Time one fixed mix of interpreter and NumPy work, the host's speed now.

    It is benchmark code, so no change to the program moves it; only the
    load of the machine does.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    for _ in range(REFERENCE_SORTS):
        np.sort(_REFERENCE_ARRAY)
    return time.perf_counter() - start


#: Share of an operation's time spent timing the reference after it.
REFERENCE_SHARE = 0.05


def sample_reference(references: list[float], after_seconds: float) -> None:
    """Time the reference at least once, and until ``REFERENCE_SHARE`` of ``after_seconds``.

    The samples then weigh each stretch of the run by how long it lasted,
    and a long operation gets enough of them to average out their own
    jitter.
    """
    spent = 0.0
    while True:
        sample = reference_seconds()
        references.append(sample)
        spent += sample
        if spent >= REFERENCE_SHARE * after_seconds:
            return


@dataclass
class Op:
    """One timed operation of a pass and its verdict."""

    name: str
    kind: str
    seconds: float
    ok: bool
    reason: str = ""
    info: dict[str, Any] = field(default_factory=dict)


@dataclass
class Pass:
    wall_s: float
    ops: list[Op]
    #: ``reference_seconds()`` samples before the first operation and after each one.
    reference_s: list[float]


def _derive_seed(rng: random.Random, used: set[int]) -> int:
    while True:
        seed = rng.randrange(1, 2**31)
        if seed not in used:
            used.add(seed)
            return seed


def _expected_sizes(spec: Any, preset: Any) -> dict[str, int]:
    """Population each point must end at: the last resize target in its horizon."""
    expected = {}
    for point in spec.points(preset, resolve_params(spec, preset)):
        size = point.n
        for time_, target in point.resize_schedule:
            if time_ <= point.parallel_time:
                size = target
        expected[point.series_label] = size
    return expected


def _nominal_work(spec: Any, preset: Any) -> int:
    return sum(
        point.n * point.parallel_time * point.trials
        for point in spec.points(preset, resolve_params(spec, preset))
    )


class ScenarioWorkload:
    """A pass is one ``run_scenario`` call per configured scenario."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        used: set[int] = set()
        self.bands = oracle.load_bands()[self.name]
        self.inputs = []
        for scenario, overrides in self.scenarios():
            spec = get_scenario(scenario)
            preset = resolve_preset(spec, "quick").with_overrides(
                seed=_derive_seed(rng, used), **overrides
            )
            self.inputs.append((spec, preset, _expected_sizes(spec, preset), _nominal_work(spec, preset)))

    def scenarios(self) -> list[tuple[str, dict[str, Any]]]:
        raise NotImplementedError

    def warmup_overrides(self, spec: Any, preset: Any) -> dict[str, Any]:
        raise NotImplementedError

    def warmup(self) -> None:
        for spec, preset, _, _ in self.inputs:
            scenario_runner.run_scenario(
                spec, preset=preset.with_overrides(**self.warmup_overrides(spec, preset))
            )

    def run_pass(self, timed: Callable[[Callable[[], Any]], Any], tracer: Any = None) -> Pass:
        """Run every input once; ``timed`` wraps each operation (the trace root)."""
        ops: list[Op] = []
        pass_start = time.perf_counter()
        references: list[float] = []
        sample_reference(references, 0.0)
        for index, (spec, preset, expected, work) in enumerate(self.inputs):
            if tracer is not None:
                tracer.run_id = index
            start = time.perf_counter()
            try:
                result = timed(lambda: scenario_runner.run_scenario(spec, preset=preset))
            except Exception as exc:  # one failed operation, not a failed benchmark
                seconds = time.perf_counter() - start
                sample_reference(references, seconds)
                ops.append(Op(spec.name, "run", seconds, False, f"{type(exc).__name__}: {exc}"))
                continue
            seconds = time.perf_counter() - start
            sample_reference(references, seconds)
            problems = oracle.check_ratios(result, self.bands.get(spec.name, {}))
            problems += oracle.check_final_sizes(result, expected)
            info = {
                "engines": result.metadata["execution"]["engines"],
                "nominal_work": work,
            }
            ops.append(Op(spec.name, "run", seconds, not problems, "; ".join(problems), info))
        return Pass(time.perf_counter() - pass_start, ops, references)

    def close(self) -> None:
        pass


class PerAgent(ScenarioWorkload):
    name = "per_agent"

    def scenarios(self) -> list[tuple[str, dict[str, Any]]]:
        return [(name, {}) for name in ("fig2", "fig3", "fig4", "oscillate", "flash_crowd", "failover")]

    def warmup_overrides(self, spec: Any, preset: Any) -> dict[str, Any]:
        # n > 128 keeps auto selection off the exact array engine.
        sizes = tuple(n for n in preset.population_sizes if n <= 200) or (200,)
        return {"population_sizes": sizes, "parallel_time": 20}


#: Horizon of the n = 10^6 points; the per-step cost of the counts engine
#: does not depend on n, so this sets the pass length.
COUNTS_HORIZON = 50


class CountsMillion(ScenarioWorkload):
    name = "counts_million"

    def scenarios(self) -> list[tuple[str, dict[str, Any]]]:
        common = {"population_sizes": (10**6,), "trials": 2, "parallel_time": COUNTS_HORIZON}
        return [
            ("repeated_decimation", dict(common, extra={"period": COUNTS_HORIZON * 2 // 9, "floor": 50})),
            ("churn", dict(common, extra={"period": COUNTS_HORIZON // 5})),
        ]

    def warmup_overrides(self, spec: Any, preset: Any) -> dict[str, Any]:
        return {"parallel_time": 2}


#: Catalog scenarios the serve script draws from, and the request shape.
#: ``churn`` is left out: it resizes to seed-dependent random sizes, and the
#: per-agent engines pay in proportion to the current size.
SERVE_SCENARIOS = ("oscillate", "boom_bust", "repeated_decimation", "flash_crowd", "diurnal", "failover")
SERVE_OVERRIDES = {"n": 1000, "parallel_time": 200, "trials": 16}
MISSES_PER_SCENARIO = 3
HITS_PER_PASS = 16
CHECKPOINT_EVERY = 50


def _payload_bytes(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


class ServeMixed:
    """Closed loop: submit, wait for the job if it missed, fetch the payload."""

    name = "serve_mixed"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        rng = random.Random(f"{self.name}:{seed}")
        used: set[int] = set()
        misses = [
            RunRequest(scenario=name, seed=_derive_seed(rng, used), overrides=SERVE_OVERRIDES, workers=2)
            for name in SERVE_SCENARIOS
            for _ in range(MISSES_PER_SCENARIO)
        ]
        rng.shuffle(misses)
        slots = sorted(rng.randrange(1, len(misses) + 1) for _ in range(HITS_PER_PASS))
        #: (kind, index into ``misses``); a hit repeats an earlier miss.
        self.script: list[tuple[str, int]] = []
        for index in range(len(misses)):
            self.script.append(("miss", index))
            for _ in range(slots.count(index + 1)):
                self.script.append(("hit", rng.randrange(0, index + 1)))
        self.requests = misses
        self._services = 0
        self.service: SimulationService | None = self._fresh_service()
        self.expected = []
        for request in misses:
            spec, preset, _, _ = self.service.resolve(request)
            self.expected.append(
                (_expected_sizes(spec, preset), _nominal_work(spec, preset))
            )

    def _fresh_service(self) -> SimulationService:
        self._services += 1
        return SimulationService(
            self.workdir / f"cache-{self._services}",
            max_workers=1,
            checkpoint_every=CHECKPOINT_EVERY,
            # Looked up per service so a traced pass sees the wrapper.
            scenario_runner=scenario_runner.run_scenario,
        )

    def _drop_service(self) -> None:
        if self.service is not None:
            self.service.close()
            shutil.rmtree(self.service.cache.root, ignore_errors=True)
            self.service = None

    def warmup(self) -> None:
        service = self.service = self.service or self._fresh_service()
        request = RunRequest(
            scenario="oscillate", seed=1, overrides={"n": 200, "parallel_time": 20, "trials": 16}, workers=2
        )
        for _ in range(2):
            status = service.submit(request)
            if not status["cached"]:
                service.queue.wait(status["run_id"], timeout=120)
            service.result_payload(status["run_id"])
        self._drop_service()

    def run_pass(self, timed: Callable[[Callable[[], Any]], Any], tracer: Any = None) -> Pass:
        """Run the script once; ``timed`` wraps each request (the trace root)."""
        service = self.service = self.service or self._fresh_service()
        ops: list[Op] = []
        first_payload: dict[int, bytes] = {}

        def request_once(request: RunRequest) -> tuple[dict[str, Any], Any, dict[str, Any]]:
            status = service.submit(request)
            job = None
            if not status["cached"]:
                job = service.queue.wait(status["run_id"], timeout=120)
            return status, job, service.result_payload(status["run_id"])

        pass_start = time.perf_counter()
        references: list[float] = []
        sample_reference(references, 0.0)
        for position, (kind, index) in enumerate(self.script):
            if tracer is not None:
                tracer.run_id = position
            request = self.requests[index]
            start = time.perf_counter()
            try:
                status, job, payload = timed(lambda: request_once(request))
            except Exception as exc:  # one failed request, not a failed benchmark
                seconds = time.perf_counter() - start
                sample_reference(references, seconds)
                ops.append(Op(request.scenario, kind, seconds, False, f"{type(exc).__name__}: {exc}"))
                continue
            seconds = time.perf_counter() - start
            sample_reference(references, seconds)
            problems = []
            info: dict[str, Any] = {}
            body_bytes = _payload_bytes(payload)
            if kind == "miss":
                if status["cached"]:
                    problems.append("a first request was served from the cache")
                if job is not None:
                    info["queue_wait_s"] = job.started - job.created
                expected, work = self.expected[index]
                problems += oracle.check_payload_sizes(payload, expected)
                info["engines"] = payload["results"][0]["metadata"]["execution"]["engines"]
                info["nominal_work"] = work
                first_payload[index] = body_bytes
            else:
                if not status["cached"]:
                    problems.append("a repeated request was not served from the cache")
                if body_bytes != first_payload.get(index):
                    problems.append("a cached payload differs from the miss that stored it")
            ops.append(Op(request.scenario, kind, seconds, not problems, "; ".join(problems), info))
        wall = time.perf_counter() - pass_start
        self._drop_service()
        return Pass(wall, ops, references)

    def close(self) -> None:
        self._drop_service()


WORKLOADS = {cls.name: cls for cls in (PerAgent, CountsMillion, ServeMixed)}
