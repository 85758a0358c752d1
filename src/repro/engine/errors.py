"""Exception hierarchy for the simulation engine.

All engine-level failures derive from :class:`EngineError` so that callers
can distinguish misuse of the simulation substrate from ordinary Python
errors raised by protocol code.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by :mod:`repro.engine`."""


class EmptyPopulationError(EngineError):
    """Raised when an operation requires at least two agents.

    The population protocol model schedules interactions between two
    *distinct* agents, so a population of fewer than two agents cannot
    make progress.
    """


class UnknownAgentError(EngineError):
    """Raised when an agent id does not refer to a live agent."""


class ConfigurationError(EngineError):
    """Raised when simulator or experiment configuration is invalid."""


class InvalidScheduleError(ConfigurationError):
    """Raised when a resize schedule is inconsistent.

    Examples include events scheduled at negative parallel times, a target
    below two agents, or two events at the same time.  Every engine raises
    it from the one validation in
    :func:`repro.engine.api.resize_events`, and it is a
    :class:`ConfigurationError`, so a bad schedule is rejected like any
    other bad setting.
    """


class UnsupportedEngineError(ConfigurationError):
    """Raised when a workload only supports a subset of the engines.

    Distinct from a plain :class:`ConfigurationError` so that sweeps (the
    CLI's ``all --engine X`` mode) can skip engine-incompatible experiments
    while still treating genuine misconfigurations as fatal.
    """


class CheckpointError(EngineError):
    """Raised when a checkpoint cannot be written, read, or applied.

    Covers on-disk corruption (bad magic, truncated payload, checksum
    mismatch, unknown schema version) as well as restore-time mismatches
    (a checkpoint taken from a differently configured engine).  Resuming
    from a damaged checkpoint must fail loudly with this error — never
    silently continue from wrong state.
    """


class ProtocolContractError(EngineError):
    """Raised when a protocol violates the engine's interaction contract.

    The engine expects :meth:`repro.engine.protocol.Protocol.interact` to
    return a pair of states.  Returning anything else (``None``, a single
    state, a triple, ...) raises this error so that bugs surface near the
    offending protocol rather than corrupting the population silently.
    """


class WorkerDiedError(EngineError):
    """Raised when a shard worker process dies while a sharded run uses it.

    The message names the dead process and its exit code or signal.  The
    run's unfinished shards are lost (a checkpointed run resumes from its
    last shard checkpoints), and the :class:`repro.engine.parallel.ShardPool`
    replaces its workers, so the next run starts on fresh ones.  A worker
    that dies between runs raises nothing: the next run sees the loss and
    forks fresh workers.
    """
