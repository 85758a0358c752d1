"""Shared machinery for the figure experiments (Figs. 2–5).

All four figures plot the same quantity — the minimum, median and maximum
agent estimate of ``log2 n`` over parallel time, aggregated over independent
runs — and differ only in the workload (population size, decimation event,
initial estimate).  :func:`run_estimate_trace` runs one such workload on a
selectable engine (``"sequential"`` / ``"batched"`` / ``"ensemble"`` /
``"counts"``, see :mod:`repro.engine.registry`) and
aggregates across trials exactly like the paper does over its 96 runs: the
reported minimum is the minimum over all runs' minima, the maximum the
maximum over all maxima, and the median the median of the runs' medians.

The batched engine is the default and the engine the figure scenarios
pin: it stacks a data point's trials into cache-sized ``(rows, n)``
engines in which every row draws from its own trial stream, so each
trial's series is bit-identical to a one-row run on that stream, however
the trials are stacked or sharded.  The ensemble engine stacks all trials
of a data point into one ``(trials, n)`` engine on one shared stream —
the fastest way to regenerate a figure at the paper's populations.  The
counts engine drops the per-agent state for a count vector, making huge
populations (n = 10^7 and beyond) affordable.
The exact sequential engine is available for small-n cross-validation and
for workloads where the interleaving matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.core.params import ProtocolParameters, empirical_parameters
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.api import Engine
from repro.engine.options import ExecutionOptions
from repro.engine.parallel import ShardTiming
from repro.engine.registry import choose_engine, make_engine
from repro.engine.rng import RandomSource
from repro.engine.runner import aggregate_series, run_engine_trials

__all__ = ["EstimateTrace", "run_estimate_trace"]


@dataclass
class EstimateTrace:
    """Aggregated estimate statistics of one workload.

    ``parallel_time``, ``population_size``, ``minimum``, ``median`` and
    ``maximum`` are aligned column lists (one entry per snapshot).
    ``shard_timings`` carries one entry per executed row-shard (dicts with
    ``shard`` / ``start`` / ``stop`` / ``trials`` / ``seconds``) when the
    workload ran on the sharded execution layer, and stays empty on the
    serial path.
    """

    n: int
    trials: int
    parallel_time: list[float]
    population_size: list[float]
    minimum: list[float]
    median: list[float]
    maximum: list[float]
    shard_timings: list[dict[str, Any]] = field(default_factory=list)

    def series(self) -> dict[str, list[float]]:
        return {
            "parallel_time": self.parallel_time,
            "population_size": self.population_size,
            "minimum": self.minimum,
            "median": self.median,
            "maximum": self.maximum,
        }


def _trace_engine_factory(
    engine_name: str,
    rng: RandomSource,
    ensemble_trials: int | None,
    *,
    n: int,
    params: ProtocolParameters,
    resize_schedule: tuple[tuple[int, int], ...],
    initial_estimate: float | None,
    sub_batches: int | None = None,
) -> Engine:
    """Build one engine for the estimate-trace workload.

    The engine factory of :func:`run_engine_trials`: a module-level function
    (bound via :func:`functools.partial` over plain-data keywords) rather
    than a closure, so the sharded execution layer can ship it to worker
    processes.

    All engines run the same protocol family — the scalar
    :class:`DynamicSizeCounting` on the sequential engine, the
    struct-of-arrays :class:`VectorizedDynamicCounting` on the approximate
    batched/ensemble engines (and, mapped to its counts kernel by the
    registry, on the counts engine) — so only the workload
    translation (initial estimate to population/arrays) lives here; the
    engine dispatch itself is :func:`repro.engine.registry.make_engine`,
    which also refuses a ``sub_batches`` the engine cannot honour.
    """
    if engine_name == "sequential":
        protocol = DynamicSizeCounting(params)
        if initial_estimate is not None:
            population: int | object = protocol.make_estimate_population(
                n, initial_estimate, rng
            )
        else:
            population = n
        return make_engine(
            engine_name,
            protocol,
            population,
            rng=rng,
            resize_schedule=resize_schedule,
            sub_batches=sub_batches,
        )
    vectorized = VectorizedDynamicCounting(params)
    initial_arrays = None
    if initial_estimate is not None:
        initial_arrays = vectorized.initial_arrays_with_estimate(n, initial_estimate)
    return make_engine(
        engine_name,
        vectorized,
        n,
        rng=rng,
        resize_schedule=resize_schedule,
        initial_arrays=initial_arrays,
        sub_batches=sub_batches,
        trials=ensemble_trials if engine_name == "ensemble" else None,
    )


def run_estimate_trace(
    n: int,
    parallel_time: int,
    *,
    trials: int,
    seed: int | None,
    params: ProtocolParameters | None = None,
    resize_schedule: Sequence[tuple[int, int]] = (),
    initial_estimate: float | None = None,
    snapshot_every: int = 1,
    sub_batches: int | None = None,
    options: ExecutionOptions | None = None,
) -> EstimateTrace:
    """Run ``trials`` independent simulations of one workload and aggregate.

    Parameters
    ----------
    n:
        Initial population size.
    parallel_time:
        Simulation horizon.
    trials / seed:
        Number of independent runs and the root seed they are spawned from.
    params:
        Protocol constants (defaults to the paper's empirical preset).
    resize_schedule:
        ``(time, target_size)`` resize pairs (Fig. 4's decimation).
    initial_estimate:
        If given, all agents start with this estimate instead of the empty
        initial configuration (Fig. 5's over-estimate of 60).
    snapshot_every:
        Snapshot granularity in parallel time units.
    sub_batches:
        Fidelity knob of the approximate engines; ``None`` (default) keeps
        their default of 8.  The exact engine refuses any value with
        :class:`~repro.engine.errors.ConfigurationError`.
    options:
        How to execute, as a frozen
        :class:`repro.engine.options.ExecutionOptions` (defaults apply when
        omitted):

        * ``engine`` — ``"sequential"``, ``"batched"``, ``"ensemble"`` or
          ``"counts"``; ``"auto"`` picks the best engine for the workload
          via :func:`repro.engine.registry.choose_engine`, and unset
          (``None``) runs ``batched``.  All engines report the same
          snapshot series; the exact engine is practical only for small
          ``n``, the batched and ensemble engines run trials in stacked
          passes (one stream per row, or one shared stream), and the counts
          engine makes huge populations (``n >= 10^7``) affordable.
        * ``workers`` and the four checkpoint fields — forwarded verbatim
          to :func:`repro.engine.runner.run_engine_trials`, which documents
          them.  Per-trial results are bit-identical across worker counts
          (and, for every engine but ``ensemble``, identical to the serial
          path), and a resumed trace is bit-identical to an uninterrupted
          one.  Per-shard wall-clock timings land in the returned trace's
          ``shard_timings``.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    opts = options if options is not None else ExecutionOptions()
    params = params or empirical_parameters()
    resize_schedule = tuple(resize_schedule)
    engine = opts.engine or "batched"
    if engine == "auto":
        engine = choose_engine(DynamicSizeCounting(params), trials, n)

    per_trial_min: list[list[float]] = []
    per_trial_med: list[list[float]] = []
    per_trial_max: list[list[float]] = []
    index: list[float] = []
    sizes: list[float] = []

    timing_sink: list[ShardTiming] = []
    trial_series = run_engine_trials(
        partial(
            _trace_engine_factory,
            n=n,
            params=params,
            resize_schedule=resize_schedule,
            initial_estimate=initial_estimate,
            sub_batches=sub_batches,
        ),
        engine=engine,
        trials=trials,
        seed=seed,
        parallel_time=parallel_time,
        snapshot_every=snapshot_every,
        workers=opts.workers,
        timing_sink=timing_sink,
        checkpoint_every=opts.checkpoint_every,
        checkpoint_dir=opts.checkpoint_dir,
        resume_from=opts.resume_from,
        interrupt_after=opts.interrupt_after,
    )

    for series in trial_series:
        per_trial_min.append(series["minimum"])
        per_trial_med.append(series["median"])
        per_trial_max.append(series["maximum"])
        if not index:
            index = series["parallel_time"]
            sizes = series["population_size"]

    minimum = aggregate_series("minimum", index, per_trial_min)
    median = aggregate_series("median", index, per_trial_med)
    maximum = aggregate_series("maximum", index, per_trial_max)
    length = min(len(minimum.index), len(median.index), len(maximum.index))
    return EstimateTrace(
        n=n,
        trials=trials,
        parallel_time=list(index[:length]),
        population_size=list(sizes[:length]),
        minimum=minimum.minimum[:length],
        median=median.median[:length],
        maximum=maximum.maximum[:length],
        shard_timings=[timing.as_dict() for timing in timing_sink],
    )
