"""Simulation substrate for population protocols.

The engine package is independent of the paper's specific protocol: it
provides the random scheduler, the dynamic population, resize schedules
(:func:`resize_events`), recorders, multi-trial orchestration, and three execution
engine classes behind one :class:`repro.engine.api.Engine` contract — exact
sequential (:class:`Simulator`), vectorised stacked trials
(:class:`EnsembleSimulator`, registered as ``"ensemble"`` and, with one
row, as ``"batched"``), and count-vector multiset
(:class:`CountsSimulator`, per-step cost independent of the population
size) — selectable by name through :func:`repro.engine.registry.make_engine`.
"""

from repro.engine.api import Engine, EngineSnapshot, RunResult, resize_events
from repro.engine.batch_engine import VectorizedProtocol
from repro.engine.counts_engine import (
    CountsKernel,
    CountsSimulator,
    CountsState,
    PackedCountsKernel,
    multiset_sample,
    weighted_quantiles,
)
from repro.engine.checkpoint import (
    CheckpointInterrupted,
    read_checkpoint,
    write_checkpoint,
)
from repro.engine.ensemble_engine import EnsembleRunResult, EnsembleSimulator
from repro.engine.errors import (
    CheckpointError,
    ConfigurationError,
    EmptyPopulationError,
    EngineError,
    InvalidScheduleError,
    ProtocolContractError,
    UnknownAgentError,
    WorkerDiedError,
)
from repro.engine.options import ExecutionOptions, execution_metadata
from repro.engine.parallel import (
    DEFAULT_SHARD_SIZE,
    MAX_AUTO_WORKERS,
    ShardPool,
    ShardTiming,
    TrialShard,
    execute_shards,
    merge_shard_results,
    plan_shards,
    resolve_workers,
)
from repro.engine.population import Population
from repro.engine.protocol import InteractionContext, OneWayProtocol, Protocol, ProtocolEvent
from repro.engine.recorder import (
    CallbackRecorder,
    EstimateRecorder,
    EventRecorder,
    MemoryRecorder,
    PhaseOccupancyRecorder,
    PopulationSizeRecorder,
    Recorder,
    SnapshotStats,
)
from repro.engine.registry import (
    ENGINE_NAMES,
    LARGE_POPULATION_THRESHOLD,
    EngineInfo,
    choose_engine,
    counts_kernel_for,
    engine_info,
    engine_names,
    has_counts_kernel,
    has_vectorized,
    make_engine,
    register_counts_kernel,
    register_engine,
    register_vectorized,
    registered_counts_protocols,
    registered_protocols,
    validate_engine_request,
    vectorized_for,
)
from repro.engine.rng import RandomSource, RowStreams, SeedTree, make_rng, spawn_streams
from repro.engine.runner import (
    AggregatedSeries,
    aggregate_series,
    run_engine_trials,
)
from repro.engine.simulator import SimulationResult, Simulator

__all__ = [
    "AggregatedSeries",
    "CallbackRecorder",
    "CheckpointError",
    "CheckpointInterrupted",
    "CountsKernel",
    "CountsSimulator",
    "CountsState",
    "DEFAULT_SHARD_SIZE",
    "ENGINE_NAMES",
    "Engine",
    "EngineInfo",
    "EngineSnapshot",
    "ConfigurationError",
    "LARGE_POPULATION_THRESHOLD",
    "MAX_AUTO_WORKERS",
    "PackedCountsKernel",
    "EmptyPopulationError",
    "EngineError",
    "EnsembleRunResult",
    "EnsembleSimulator",
    "EstimateRecorder",
    "EventRecorder",
    "ExecutionOptions",
    "InteractionContext",
    "InvalidScheduleError",
    "MemoryRecorder",
    "OneWayProtocol",
    "PhaseOccupancyRecorder",
    "Population",
    "PopulationSizeRecorder",
    "Protocol",
    "ProtocolContractError",
    "ProtocolEvent",
    "RandomSource",
    "Recorder",
    "RowStreams",
    "RunResult",
    "SeedTree",
    "ShardPool",
    "ShardTiming",
    "SimulationResult",
    "Simulator",
    "SnapshotStats",
    "TrialShard",
    "UnknownAgentError",
    "VectorizedProtocol",
    "WorkerDiedError",
    "aggregate_series",
    "choose_engine",
    "counts_kernel_for",
    "engine_info",
    "engine_names",
    "execute_shards",
    "execution_metadata",
    "has_counts_kernel",
    "has_vectorized",
    "make_engine",
    "make_rng",
    "merge_shard_results",
    "multiset_sample",
    "plan_shards",
    "read_checkpoint",
    "register_counts_kernel",
    "register_engine",
    "register_vectorized",
    "registered_counts_protocols",
    "registered_protocols",
    "resize_events",
    "resolve_workers",
    "run_engine_trials",
    "spawn_streams",
    "validate_engine_request",
    "vectorized_for",
    "weighted_quantiles",
    "write_checkpoint",
]
