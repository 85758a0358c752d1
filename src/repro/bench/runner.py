"""Grid execution: turn :class:`BenchSpec`s into a :class:`BenchSuite`.

Every case runs through the same scenario machinery production code uses
(:func:`repro.scenarios.runner.run_scenario`), so a benchmark measures the
real end-to-end path — engine selection, sharding, metric extraction — not
a stripped-down re-implementation that can drift from it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.bench.spec import BenchSpec, nominal_work
from repro.bench.suite import BenchSuite, CaseResult
from repro.bench.timing import calibration_seconds, measure
from repro.engine.options import ExecutionOptions
from repro.engine.errors import ConfigurationError
from repro.kernels import availability, compile_warmup
from repro.scenarios.runner import run_scenario

__all__ = ["run_case", "run_suite"]


def run_case(spec: BenchSpec, *, warmup: int = 1, repeats: int = 3) -> CaseResult:
    """Execute one benchmark case and return its measured result.

    A ``jit`` case gets :func:`repro.kernels.compile_warmup` as the one-shot
    ``warmup_fn`` (when the compiled backend is available), so first-call
    numba compilation lands in ``compile_seconds`` instead of a sample.
    """
    work = nominal_work(spec)

    def workload() -> None:
        run_scenario(
            spec.scenario,
            effort=spec.effort,
            options=ExecutionOptions(
                engine=spec.engine, workers=spec.workers, jit=spec.jit
            ),
        )

    warmup_fn = None
    if spec.jit and availability().enabled:
        warmup_fn = compile_warmup

    timing = measure(workload, warmup=warmup, repeats=repeats, warmup_fn=warmup_fn)
    return CaseResult(
        case_id=spec.case_id,
        scenario=spec.scenario,
        engine=spec.engine,
        workers=spec.workers,
        effort=spec.effort,
        seconds=timing.seconds,
        work_interactions=work,
        compile_seconds=timing.compile_seconds,
    )


def run_suite(
    specs: Sequence[BenchSpec],
    *,
    warmup: int = 1,
    repeats: int = 3,
    calibrate: bool = True,
    progress: Callable[[str], None] | None = None,
) -> BenchSuite:
    """Execute a grid of cases and assemble the normalized suite.

    ``progress`` (e.g. ``print``) receives one line per case as it
    completes; the grid itself runs serially so that cases never contend
    with each other for cores — the sharded-execution cases need the
    machine to themselves to measure anything meaningful.
    """
    if not specs:
        raise ConfigurationError("a benchmark suite needs at least one case")
    seen: set[str] = set()
    for spec in specs:
        # Checked up front: the suite would reject duplicates anyway, but
        # only after the whole (multi-minute) grid has already executed.
        if spec.case_id in seen:
            raise ConfigurationError(f"duplicate benchmark case {spec.case_id!r}")
        seen.add(spec.case_id)
    efforts = {spec.effort for spec in specs}
    effort = efforts.pop() if len(efforts) == 1 else "mixed"
    calibration = calibration_seconds() if calibrate else None
    cases = []
    for spec in specs:
        result = run_case(spec, warmup=warmup, repeats=repeats)
        cases.append(result)
        if progress is not None:
            progress(
                f"{result.case_id}: median {result.median_seconds:.3f}s "
                f"min {result.min_seconds:.3f}s "
                f"({result.interactions_per_second / 1e6:.2f}M inter/s)"
            )
    return BenchSuite(
        cases=tuple(cases),
        effort=effort,
        warmup=warmup,
        repeats=repeats,
        calibration_seconds=calibration,
    )
