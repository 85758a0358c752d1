"""Protocol registries, the engine table, and engine selection by name.

Three pieces of plumbing that make the unified engine layer usable from
experiment code:

* a **vectorized registry** mapping scalar protocol classes (subclasses of
  :class:`repro.engine.protocol.Protocol`) to factories for their
  vectorised counterparts, so that the batched/ensemble engines can be
  asked to run a scalar protocol and look up the struct-of-arrays
  implementation themselves;
* a **counts-kernel registry** doing the same for the multiset engine's
  :class:`repro.engine.counts_engine.CountsKernel` adapters; and
* an **engine table** (:class:`EngineInfo`) mapping engine names to
  builders plus capability flags, consumed by :func:`make_engine` — a new
  engine is a :func:`register_engine` call, not an edit to an if-chain.

The four built-in engines — ``"sequential"`` / ``"batched"`` /
``"ensemble"`` / ``"counts"`` — register when this module is imported;
the default protocol registrations (dynamic size counting and the uniform
phase clock) are loaded lazily on first lookup, so importing this module
stays cheap and free of circular imports.  The toolbox protocols of
:mod:`repro.protocols` have no registration: they run on ``"sequential"``
only, and the other engines reject them with a
:class:`~repro.engine.errors.ConfigurationError`.

Example
-------
>>> from repro.core.dynamic_counting import DynamicSizeCounting
>>> from repro.engine.registry import make_engine
>>> engine = make_engine("batched", DynamicSizeCounting(), 10_000, seed=1)
>>> result = engine.run(100)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.engine.api import Engine
from repro.engine.batch_engine import VectorizedProtocol
from repro.engine.counts_engine import CountsKernel, CountsSimulator
from repro.engine.ensemble_engine import EnsembleSimulator
from repro.engine.errors import ConfigurationError, UnsupportedEngineError
from repro.engine.parallel import note_registry_change
from repro.engine.population import Population
from repro.engine.recorder import Recorder
from repro.engine.rng import RandomSource, RowStreams
from repro.engine.simulator import Simulator

__all__ = [
    "ENGINE_NAMES",
    "LARGE_POPULATION_THRESHOLD",
    "EngineInfo",
    "register_engine",
    "engine_names",
    "engine_info",
    "engine_capabilities",
    "validate_engine_request",
    "register_vectorized",
    "has_vectorized",
    "vectorized_for",
    "registered_protocols",
    "register_counts_kernel",
    "has_counts_kernel",
    "counts_kernel_for",
    "registered_counts_protocols",
    "choose_engine",
    "make_engine",
]

#: At and above this population size the per-agent engines pay O(n) per
#: parallel step while the counts engine stays O(|Q|^2), so
#: :func:`choose_engine` switches to ``"counts"`` whenever the protocol has
#: a counts kernel.  Measured on dynamic counting, in ms per parallel step
#: of a 3-trial point over the first 35 steps from the initial
#: configuration (2-core box), ``counts`` (three looped trials) against
#: ``ensemble`` is 18 vs 4.6 at n = 10^4, 46 vs 44 at 10^5 and 124 vs 456
#: at 10^6: the crossover sits near 10^5.  Below this bound the per-agent
#: engines are still fast enough and keep their stronger fidelity class.
LARGE_POPULATION_THRESHOLD = 1_000_000

#: Scalar protocol class -> factory building its vectorised counterpart.
_REGISTRY: dict[type, Callable[[Any], VectorizedProtocol]] = {}
#: Protocol class -> factory building its counts kernel.
_COUNTS_REGISTRY: dict[type, Callable[[Any], CountsKernel]] = {}
_defaults_loaded = False


# --------------------------------------------------------------- engine table


@dataclass(frozen=True)
class EngineInfo:
    """One engine registration: a builder plus its capability flags.

    The flags drive :func:`make_engine`'s shared argument validation, so a
    registered backend only implements what it genuinely supports and the
    rejection messages stay uniform.

    Attributes
    ----------
    name:
        Name accepted by :func:`make_engine` / ``--engine``.
    builder:
        Callable with :func:`make_engine`'s full signature building the
        engine instance (called after the shared validation).
    description:
        One-line summary for listings and docs.
    exact:
        Whether the engine reproduces the sequential scheduler exactly
        (as opposed to a synchronous-rounds / count-level approximation).
    supports_trials:
        Accepts ``trials=`` (stacked multi-trial execution).
    supports_recorders:
        Accepts :class:`repro.engine.recorder.Recorder` observers, and
        with them ``snapshot_stats=False``.
    supports_initial_arrays:
        Accepts ``initial_arrays`` struct-of-arrays initial configurations.
    requires_int_population:
        Only accepts an integer population size (no ``Population`` object).
    """

    name: str
    builder: Callable[..., Engine]
    description: str = ""
    exact: bool = False
    supports_trials: bool = False
    supports_recorders: bool = False
    supports_initial_arrays: bool = False
    requires_int_population: bool = True


_ENGINE_TABLE: dict[str, EngineInfo] = {}

#: Names accepted by :func:`make_engine` (and the experiments' ``engine=``).
#: Rebuilt by :func:`register_engine`; prefer :func:`engine_names` in code
#: that must see late registrations.
ENGINE_NAMES: tuple[str, ...] = ()


def register_engine(info: EngineInfo) -> None:
    """Register (or replace) an engine in the table used by :func:`make_engine`."""
    global ENGINE_NAMES
    _ENGINE_TABLE[info.name] = info
    ENGINE_NAMES = tuple(_ENGINE_TABLE)
    note_registry_change()


def engine_names() -> tuple[str, ...]:
    """Currently registered engine names, in registration order."""
    return tuple(_ENGINE_TABLE)


def engine_info(name: str) -> EngineInfo:
    """The registration record for an engine name."""
    try:
        return _ENGINE_TABLE[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; available engines: {', '.join(_ENGINE_TABLE)}"
        ) from None


def validate_engine_request(engine: str | None, scenario: Any = None) -> None:
    """Reject a bad engine request before any simulation work starts.

    ``None`` and ``"auto"`` defer to the caller's selection policy and
    always pass.  Any other name must be registered
    (:class:`ConfigurationError` otherwise) and, when ``scenario`` (a
    :class:`repro.scenarios.spec.ScenarioSpec`) is given, supported by it
    (:class:`~repro.engine.errors.UnsupportedEngineError` otherwise).
    """
    if engine is None or engine == "auto":
        return
    if engine not in _ENGINE_TABLE:
        raise ConfigurationError(
            f"unknown engine {engine!r}; available engines: "
            f"{', '.join(_ENGINE_TABLE)} (or 'auto')"
        )
    if scenario is not None and not scenario.supports_engine(engine):
        raise UnsupportedEngineError(
            f"scenario {scenario.name!r} supports engine(s) "
            f"{', '.join(scenario.engines)}, got {engine!r}"
        )


def engine_capabilities() -> list[dict[str, Any]]:
    """Every registered engine's capability flags as plain JSON-encodable data.

    One dict per :class:`EngineInfo`, in registration order, with the
    ``builder`` callable dropped — the machine-readable counterpart of the
    engine table, consumed by ``repro.serve``'s ``/healthz`` endpoint and by
    anything else that needs to introspect what a deployment can execute
    without touching engine classes.
    """
    capabilities = []
    for info in _ENGINE_TABLE.values():
        record = dataclasses.asdict(info)
        del record["builder"]
        capabilities.append(record)
    return capabilities


# ------------------------------------------------------- vectorized registry


def register_vectorized(
    protocol_cls: type, factory: Callable[[Any], VectorizedProtocol]
) -> None:
    """Register ``factory(protocol) -> VectorizedProtocol`` for a protocol class.

    The factory receives the scalar protocol instance so that it can carry
    over parameters (protocol constants, one-way flags, level caps, ...).
    Registering a class again replaces the previous factory.
    """
    _REGISTRY[protocol_cls] = factory
    note_registry_change()


def register_counts_kernel(
    protocol_cls: type, factory: Callable[[Any], CountsKernel]
) -> None:
    """Register ``factory(protocol) -> CountsKernel`` for a protocol class.

    Mirrors :func:`register_vectorized` for the counts engine.  Registering
    both the scalar protocol class and its vectorised counterpart lets
    callers holding either representation run on ``"counts"``.
    """
    _COUNTS_REGISTRY[protocol_cls] = factory
    note_registry_change()


def _ensure_default_registrations() -> None:
    """Load the built-in registrations (deferred to avoid import cycles)."""
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True
    from repro.core.counts import DynamicCountingCountsKernel
    from repro.core.dynamic_counting import DynamicSizeCounting
    from repro.core.phase_clock import UniformPhaseClock
    from repro.core.vectorized import VectorizedDynamicCounting

    register_vectorized(
        DynamicSizeCounting, lambda p: VectorizedDynamicCounting(p.params)
    )
    # The uniform phase clock *is* the counting protocol (its ticks are the
    # resets), so its vectorised counterpart is the counting kernel, whose
    # ``resets`` array doubles as the cumulative tick count.
    register_vectorized(
        UniformPhaseClock, lambda p: VectorizedDynamicCounting(p.params)
    )

    # Counts kernels: registered for the scalar protocols *and* their
    # vectorised counterpart, so code paths that already resolved a
    # VectorizedProtocol (the generic trace builder, scenario executors)
    # can switch to the counts engine without re-plumbing.
    for cls in (DynamicSizeCounting, UniformPhaseClock, VectorizedDynamicCounting):
        register_counts_kernel(cls, lambda p: DynamicCountingCountsKernel(p.params))


def has_vectorized(protocol: Any) -> bool:
    """Whether a vectorised counterpart is known for ``protocol``."""
    if isinstance(protocol, VectorizedProtocol):
        return True
    _ensure_default_registrations()
    return any(isinstance(protocol, cls) for cls in _REGISTRY)


def vectorized_for(protocol: Any) -> VectorizedProtocol:
    """Return the vectorised counterpart of a scalar protocol instance.

    A :class:`VectorizedProtocol` passed in is returned unchanged.  Lookup
    walks the protocol's exact class first and then its MRO, so registering
    a base class covers subclasses too.
    """
    if isinstance(protocol, VectorizedProtocol):
        return protocol
    _ensure_default_registrations()
    for cls in type(protocol).__mro__:
        factory = _REGISTRY.get(cls)
        if factory is not None:
            return factory(protocol)
    raise ConfigurationError(
        f"no vectorized counterpart registered for {type(protocol).__name__}; "
        f"registered protocols: {', '.join(registered_protocols()) or '(none)'}. "
        "Use register_vectorized() or run on the sequential engine."
    )


def registered_protocols() -> list[str]:
    """Sorted names of the scalar protocol classes with registrations."""
    _ensure_default_registrations()
    return sorted(cls.__name__ for cls in _REGISTRY)


def counts_kernel_for(protocol: Any) -> CountsKernel:
    """Build the counts kernel for a protocol instance.

    A :class:`~repro.engine.counts_engine.CountsKernel` passed in is
    returned unchanged; otherwise the lookup walks the protocol's MRO like
    :func:`vectorized_for`.  Raises :class:`ConfigurationError` when no
    kernel is registered *or* when the registered kernel rejects the
    protocol's parameterisation (e.g. the theory presets of dynamic
    counting overflow the packed state key).
    """
    if isinstance(protocol, CountsKernel):
        return protocol
    _ensure_default_registrations()
    for cls in type(protocol).__mro__:
        factory = _COUNTS_REGISTRY.get(cls)
        if factory is not None:
            return factory(protocol)
    raise ConfigurationError(
        f"no counts kernel registered for {type(protocol).__name__}; "
        f"registered protocols: {', '.join(registered_counts_protocols()) or '(none)'}. "
        "Use register_counts_kernel() or run on a per-agent engine."
    )


def has_counts_kernel(protocol: Any) -> bool:
    """Whether ``protocol`` can run on the counts engine *as parameterised*.

    False both when no kernel is registered and when kernel construction
    rejects the parameters, so :func:`choose_engine` never selects
    ``"counts"`` for a workload :func:`make_engine` would refuse.
    """
    try:
        counts_kernel_for(protocol)
    except ConfigurationError:
        return False
    return True


def registered_counts_protocols() -> list[str]:
    """Sorted names of the protocol classes with counts-kernel registrations."""
    _ensure_default_registrations()
    return sorted(cls.__name__ for cls in _COUNTS_REGISTRY)


def choose_engine(protocol: Any, trials: int, n: int) -> str:
    """Pick the best engine name for a workload.

    The policy mirrors the measured trade-offs of the engine benchmarks,
    tiered by population size and trial count:

    * a protocol without a vectorised counterpart can only run on the
      ``"sequential"`` engine;
    * huge populations (``n >=`` :data:`LARGE_POPULATION_THRESHOLD`) of
      protocols with a counts kernel run on the ``"counts"`` engine, whose
      per-step cost is independent of ``n`` (a multi-trial point loops or
      shards counts instances — still far cheaper than any per-agent
      stacking at this scale);
    * multi-trial workloads of vectorisable protocols run fastest on the
      ``"ensemble"`` engine (trials in stacked passes);
    * a single trial runs on the ``"batched"`` engine.

    A vectorisable protocol is never routed to the exact ``"sequential"``
    engine, whatever its size: exactness is an explicit
    ``engine="sequential"`` request.  Experiments that pin an engine for
    reproducibility of published outputs bypass this helper; everything
    else (new scenarios, ``--engine auto``) routes through it.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    if n < 2:
        raise ConfigurationError(f"population size must be at least 2, got {n}")
    if not has_vectorized(protocol):
        return "sequential"
    if n >= LARGE_POPULATION_THRESHOLD and has_counts_kernel(protocol):
        return "counts"
    if trials > 1:
        return "ensemble"
    return "batched"


# ------------------------------------------------------------------ builders


def _build_sequential(
    protocol: Any,
    population: int | Population,
    *,
    rng: RandomSource | None,
    seed: int | None,
    resize_schedule: tuple[tuple[int, int], ...],
    recorders: Iterable[Recorder],
    snapshot_stats: bool,
    **_,
) -> Engine:
    if isinstance(protocol, VectorizedProtocol):
        raise ConfigurationError(
            "the sequential engine needs a scalar Protocol, got the "
            f"vectorized {type(protocol).__name__}"
        )
    return Simulator(
        protocol,
        population,
        rng=rng,
        seed=seed,
        resize_schedule=resize_schedule,
        recorders=recorders,
        snapshot_stats=snapshot_stats,
    )


class _BatchedEnsemble(EnsembleSimulator):
    """The ``"batched"`` engine: an ensemble with one stream per row."""

    name = "batched"


def _build_batched(
    protocol,
    population,
    *,
    rng,
    seed,
    resize_schedule,
    initial_arrays,
    sub_batches,
    **_,
):
    vectorized = vectorized_for(protocol)
    trials = 1
    if isinstance(rng, RowStreams):
        # One stack of as many trial streams as fit the ensemble's trial
        # block; the caller continues with the streams left over.
        trials = EnsembleSimulator.stack_rows(vectorized, population, len(rng), initial_arrays)
        rng = rng.row_block(0, trials)
    return _BatchedEnsemble(
        vectorized,
        population,
        trials=trials,
        rng=rng,
        seed=seed,
        resize_schedule=resize_schedule,
        initial_arrays=initial_arrays,
        sub_batches=sub_batches,
    )


def _build_ensemble(
    protocol,
    population,
    *,
    rng,
    seed,
    resize_schedule,
    initial_arrays,
    sub_batches,
    trials,
    **_,
):
    return EnsembleSimulator(
        vectorized_for(protocol),
        population,
        trials=1 if trials is None else trials,
        rng=rng,
        seed=seed,
        resize_schedule=resize_schedule,
        initial_arrays=initial_arrays,
        sub_batches=sub_batches,
    )


def _build_counts(
    protocol, population, *, rng, seed, resize_schedule, initial_arrays, sub_batches, **_
):
    kernel = counts_kernel_for(protocol)
    initial_state = None
    if initial_arrays is not None:
        initial_state = kernel.state_from_arrays(initial_arrays)
    return CountsSimulator(
        kernel,
        population,
        rng=rng,
        seed=seed,
        resize_schedule=resize_schedule,
        sub_batches=sub_batches,
        initial_state=initial_state,
    )


register_engine(
    EngineInfo(
        name="sequential",
        builder=_build_sequential,
        description="exact interleaving over object state (recorders, event traces)",
        exact=True,
        supports_recorders=True,
        requires_int_population=False,
    )
)
register_engine(
    EngineInfo(
        name="batched",
        builder=_build_batched,
        description=(
            "approximate synchronous-rounds batching, one stream per trial "
            "(trials stacked, each row bit-identical to its own one-row run)"
        ),
        supports_initial_arrays=True,
    )
)
register_engine(
    EngineInfo(
        name="ensemble",
        builder=_build_ensemble,
        description="approximate batching stacked across all trials at once",
        supports_trials=True,
        supports_initial_arrays=True,
    )
)
register_engine(
    EngineInfo(
        name="counts",
        builder=_build_counts,
        description="count-vector multiset dynamics; per-step cost independent of n",
        supports_initial_arrays=True,
    )
)


def make_engine(
    engine: str,
    protocol: Any,
    population: int | Population,
    *,
    rng: RandomSource | None = None,
    seed: int | None = None,
    resize_schedule: Iterable[tuple[int, int]] = (),
    recorders: Iterable[Recorder] = (),
    snapshot_stats: bool = True,
    initial_arrays: dict[str, np.ndarray] | None = None,
    sub_batches: int | None = None,
    trials: int | None = None,
) -> Engine:
    """Build an engine by name for the given protocol and population.

    Parameters
    ----------
    engine:
        A registered engine name (see :func:`engine_names`):
        ``"sequential"`` (exact, object state), ``"batched"``
        (approximate, vectorised), ``"ensemble"`` (approximate, vectorised
        across all trials of an experiment at once) or ``"counts"``
        (count-vector multiset dynamics, per-step cost independent of
        ``n``).
    protocol:
        A scalar :class:`repro.engine.protocol.Protocol` (looked up in the
        registries for the batched/ensemble/counts engines) or a
        :class:`VectorizedProtocol` (used directly by the batched/ensemble
        engines and mapped to its counts kernel by the counts engine;
        rejected by the sequential engine).
    population:
        Initial population size; the sequential engine also accepts a
        pre-built :class:`Population`.
    resize_schedule:
        ``(parallel_time, target_size)`` pairs, validated and applied by
        :class:`~repro.engine.api.Engine` (the same rules and the same
        :class:`~repro.engine.errors.InvalidScheduleError` on every
        engine; see :func:`repro.engine.api.resize_events`).
    recorders / snapshot_stats:
        Sequential-engine extras (richer than the shared snapshot hooks);
        ``snapshot_stats=False`` skips the per-snapshot output statistics
        for callers that only consume recorders.  Both are rejected for
        engines without ``supports_recorders``.
    initial_arrays / sub_batches:
        Extras of the approximate engines; rejected for the exact
        sequential engine.  The counts engine converts ``initial_arrays``
        into its count state (integer-valued planes only).
        ``sub_batches`` defaults to 8.
    rng / seed:
        The random source, or a seed to build one.  ``"batched"`` also
        takes a :class:`~repro.engine.rng.RowStreams` (one source per
        trial) and then stacks as many of its streams as fit the ensemble
        engine's trial block, each row drawing from its own stream — how
        :func:`repro.engine.runner.run_engine_trials` runs its trials.
    trials:
        Number of stacked trials for the ensemble engine (defaults to 1);
        rejected for every engine without ``supports_trials`` — they run
        one trial per instance (``"batched"``: one per stream of its
        ``RowStreams``).
    """
    resize_schedule = tuple(resize_schedule)
    info = _ENGINE_TABLE.get(engine)
    if info is None:
        raise ConfigurationError(
            f"unknown engine {engine!r}; available engines: {', '.join(_ENGINE_TABLE)}"
        )
    if trials is not None and not info.supports_trials:
        raise ConfigurationError(
            "trials is only supported by the ensemble engine; the "
            f"{engine!r} engine runs one trial per instance"
        )
    recorders = list(recorders)
    if recorders and not info.supports_recorders:
        raise ConfigurationError(
            f"the {engine} engine does not support Recorder observers; "
            "use Engine.add_snapshot_hook() instead"
        )
    if not snapshot_stats and not info.supports_recorders:
        raise ConfigurationError(
            f"the {engine} engine always computes snapshot statistics; "
            "snapshot_stats=False needs an engine with Recorder observers"
        )
    if sub_batches is not None and info.exact:
        raise ConfigurationError(
            f"the {engine} engine is exact and has no sub-batches; "
            f"sub_batches={sub_batches} only applies to the approximate engines"
        )
    if initial_arrays is not None and not info.supports_initial_arrays:
        capable = [other.name for other in _ENGINE_TABLE.values() if other.supports_initial_arrays]
        raise ConfigurationError(
            f"initial_arrays is only supported by the {', '.join(capable)} engines; "
            "pass a pre-built Population to the sequential engine instead"
        )
    if info.requires_int_population and not isinstance(population, int):
        raise ConfigurationError(
            f"the {engine} engine needs an integer population size, got "
            f"{type(population).__name__}; use initial_arrays for custom "
            "initial configurations"
        )
    return info.builder(
        protocol,
        population,
        rng=rng,
        seed=seed,
        resize_schedule=resize_schedule,
        recorders=recorders,
        snapshot_stats=snapshot_stats,
        initial_arrays=initial_arrays,
        sub_batches=8 if sub_batches is None else sub_batches,
        trials=trials,
    )
