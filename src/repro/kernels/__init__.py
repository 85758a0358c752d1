"""Compiled (Numba) kernel backend: availability probe and dispatch layer.

``repro.kernels`` is the opt-in compiled counterpart of the vectorised
NumPy kernels.  It mirrors the two registries in
:mod:`repro.engine.registry`: :func:`register_jit_kernel` maps protocol
classes to factories building their fused-kernel wrappers
(:mod:`repro.kernels.jit`), and :func:`jit_kernel_for` resolves an
instance through its MRO.  The engine registry's ``jit=True`` path calls
the permissive :func:`jit_wrap`, which degrades to the plain vectorised
protocol — silently but logged — whenever :func:`availability` says the
compiled path cannot (numba missing) or must not (``REPRO_DISABLE_JIT``)
be used.

Importing this package is cheap: the kernel module (and hence numba
compilation) loads lazily on the first lookup.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable

from repro.kernels.availability import DISABLE_ENV, JitAvailability, availability

__all__ = [
    "DISABLE_ENV",
    "JitAvailability",
    "availability",
    "register_jit_kernel",
    "has_jit_kernel",
    "jit_kernel_for",
    "jit_wrap",
    "registered_jit_protocols",
    "compile_warmup",
]

_LOGGER = logging.getLogger("repro.kernels")

#: Protocol class -> factory building its fused-kernel wrapper.
_JIT_REGISTRY: dict[type, Callable[[Any], Any]] = {}
_defaults_loaded = False
_WRAP_LOGGED: set[str] = set()


def register_jit_kernel(protocol_cls: type, factory: Callable[[Any], Any]) -> None:
    """Register ``factory(protocol) -> jit wrapper`` for a protocol class.

    Mirrors :func:`repro.engine.registry.register_vectorized`.  The factory
    receives the protocol instance (scalar or vectorised — register both
    classes, like the counts kernels do) and returns a
    :class:`~repro.engine.batch_engine.VectorizedProtocol` whose
    ``interact_ensemble`` runs the fused kernels.
    Registering a class again replaces the previous factory.
    """
    _JIT_REGISTRY[protocol_cls] = factory


def _ensure_jit_registrations() -> None:
    """Load the built-in registrations (deferred: importing jit.py pulls in
    the vectorised protocol modules)."""
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True
    from repro.core.dynamic_counting import DynamicSizeCounting
    from repro.core.phase_clock import UniformPhaseClock
    from repro.core.vectorized import VectorizedDynamicCounting
    from repro.kernels.jit import (
        JitVectorizedApproximateMajority,
        JitVectorizedDynamicCounting,
        JitVectorizedInfectionEpidemic,
        JitVectorizedJuntaElection,
        JitVectorizedMaxEpidemic,
    )
    from repro.protocols.epidemic import InfectionEpidemic, MaxEpidemic
    from repro.protocols.junta import JuntaElection
    from repro.protocols.majority import ApproximateMajority
    from repro.protocols.vectorized import (
        VectorizedApproximateMajority,
        VectorizedInfectionEpidemic,
        VectorizedJuntaElection,
        VectorizedMaxEpidemic,
    )

    # Registered for the scalar protocols *and* their vectorised
    # counterparts, so engine builders that already resolved a
    # VectorizedProtocol can still upgrade to the fused kernels.
    for cls in (DynamicSizeCounting, UniformPhaseClock, VectorizedDynamicCounting):
        register_jit_kernel(cls, lambda p: JitVectorizedDynamicCounting(p.params))
    for cls in (MaxEpidemic, VectorizedMaxEpidemic):
        register_jit_kernel(
            cls, lambda p: JitVectorizedMaxEpidemic(p.initial_value, p.one_way)
        )
    for cls in (InfectionEpidemic, VectorizedInfectionEpidemic):
        register_jit_kernel(cls, lambda p: JitVectorizedInfectionEpidemic(p.one_way))
    for cls in (JuntaElection, VectorizedJuntaElection):
        register_jit_kernel(cls, lambda p: JitVectorizedJuntaElection(p.max_level))
    for cls in (ApproximateMajority, VectorizedApproximateMajority):
        register_jit_kernel(
            cls, lambda p: JitVectorizedApproximateMajority(p.initial_opinion)
        )


def _is_jit_wrapper(protocol: Any) -> bool:
    return bool(getattr(protocol, "jit_backend", False))


def has_jit_kernel(protocol: Any) -> bool:
    """Whether a fused-kernel wrapper is registered for ``protocol``."""
    if _is_jit_wrapper(protocol):
        return True
    _ensure_jit_registrations()
    return any(isinstance(protocol, cls) for cls in _JIT_REGISTRY)


def jit_kernel_for(protocol: Any) -> Any:
    """Build the fused-kernel wrapper for a protocol instance (strict).

    A wrapper passed in is returned unchanged; otherwise the lookup walks
    the protocol's MRO like :func:`repro.engine.registry.vectorized_for`
    and raises :class:`~repro.engine.errors.ConfigurationError` when
    nothing is registered.  Availability is *not* consulted here — the
    returned wrapper itself falls back to the NumPy kernels at call time.
    """
    if _is_jit_wrapper(protocol):
        return protocol
    _ensure_jit_registrations()
    for cls in type(protocol).__mro__:
        factory = _JIT_REGISTRY.get(cls)
        if factory is not None:
            return factory(protocol)
    from repro.engine.errors import ConfigurationError

    raise ConfigurationError(
        f"no jit kernel registered for {type(protocol).__name__}; "
        f"registered protocols: {', '.join(registered_jit_protocols()) or '(none)'}. "
        "Use register_jit_kernel() or run with jit=False."
    )


def registered_jit_protocols() -> list[str]:
    """Sorted names of the protocol classes with jit-kernel registrations."""
    _ensure_jit_registrations()
    return sorted(cls.__name__ for cls in _JIT_REGISTRY)


def _log_wrap_fallback(message: str) -> None:
    if message not in _WRAP_LOGGED:
        _WRAP_LOGGED.add(message)
        _LOGGER.info("%s (using NumPy reference)", message)


def jit_wrap(protocol: Any) -> Any:
    """Best-effort upgrade of a protocol to its fused-kernel wrapper.

    This is the permissive entry point used by the engine builders: when
    the compiled backend is unavailable, or no kernel is registered for the
    protocol, the input is returned unchanged and the reason logged once,
    so ``jit=True`` never breaks a run that would work without it.
    """
    if _is_jit_wrapper(protocol):
        return protocol
    status = availability()
    if not status.enabled:
        # availability() already logged the reason.
        return protocol
    if not has_jit_kernel(protocol):
        _log_wrap_fallback(
            f"no jit kernel registered for {type(protocol).__name__}"
        )
        return protocol
    return jit_kernel_for(protocol)


def compile_warmup() -> float:
    """Trigger numba compilation of every fused kernel; return wall seconds.

    Runs two tiny steps of each registered protocol on the ensemble engine
    with ``jit=True``, hitting the dtype specialisations the real workloads
    use (the ``"batched"`` engine's stacks share them), so first-call
    compilation happens here instead of inside a measurement.  A no-op
    (returning ~0) when the compiled backend is unavailable.
    ``repro.bench`` passes this as ``warmup_fn`` for jit cases and reports
    the cost as ``compile_seconds``.
    """
    started = time.perf_counter()
    if not availability().enabled:
        return time.perf_counter() - started
    from repro.core.dynamic_counting import DynamicSizeCounting
    from repro.engine.registry import make_engine
    from repro.protocols.epidemic import InfectionEpidemic, MaxEpidemic
    from repro.protocols.junta import JuntaElection
    from repro.protocols.majority import ApproximateMajority

    for protocol_cls in (
        DynamicSizeCounting,
        MaxEpidemic,
        InfectionEpidemic,
        JuntaElection,
        ApproximateMajority,
    ):
        make_engine(
            "ensemble", protocol_cls(), 64, seed=0, trials=2, jit=True
        ).run(2)
    return time.perf_counter() - started
