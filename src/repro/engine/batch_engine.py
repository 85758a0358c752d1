"""The vectorised protocol interface of the struct-of-arrays engine.

The paper simulates populations of up to 10^6 agents.  Executing 5000
parallel time steps at that size means 5 * 10^9 sequential interactions —
out of reach for a pure-Python loop.  The authors solved this with a custom
C++ simulator; we solve it with vectorised NumPy transitions over
struct-of-arrays state.

Approximation
-------------
The vectorised engine (:class:`repro.engine.ensemble_engine.
EnsembleSimulator`, registered as ``"ensemble"`` and, with one random
stream per row, as ``"batched"``) processes one parallel time step (``n``
interactions) at a time.  Within a batch it draws ``n`` ordered pairs of distinct agents and
applies the protocol's vectorised transition with the *responder state taken
from the beginning of the batch*, while initiator updates are applied
last-writer-wins.  This is the standard "synchronous rounds" approximation
of the sequential scheduler: information spreads at the same asymptotic rate
(an epidemic still needs Theta(log n) rounds), but the exact interleaving
within one parallel time unit is not preserved.

All figure-scale experiments that use this engine are cross-validated at
small n against the exact :class:`repro.engine.simulator.Simulator` (see
``tests/test_engine_equivalence.py``); the qualitative shapes of Figs. 2–5
are insensitive to the within-round interleaving.

Protocols opt in by implementing the :class:`VectorizedProtocol` interface,
which represents the whole population as a struct-of-arrays dictionary of
NumPy arrays.  The registry in :mod:`repro.engine.registry` maps scalar
protocol classes to their vectorised counterparts.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.engine.errors import ConfigurationError
from repro.engine.rng import RandomSource

__all__ = ["VectorizedProtocol", "flat_pair_indices", "flat_state_view"]


def flat_state_view(arr: np.ndarray) -> np.ndarray:
    """Flat *view* of a stacked ``(trials, n)`` state array.

    The ensemble kernels index the stacked state through flat coordinates
    (``trial * n + slot``, see :func:`flat_pair_indices`), which is
    substantially faster than broadcast 2-D fancy indexing — but only safe
    on a view: a silent copy would discard every write.  The ensemble
    engine always keeps its state C-contiguous; this guard turns any
    violation into a loud error.
    """
    if not arr.flags.c_contiguous:
        raise ConfigurationError(
            "ensemble state arrays must be C-contiguous for flat indexing; "
            "got a non-contiguous array (pass np.ascontiguousarray data)"
        )
    return arr.reshape(-1)


def flat_pair_indices(
    initiators: np.ndarray, responders: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat coordinates (``trial * n + slot``) of ``(trials, batch)`` pair matrices.

    Row ``t`` of the index matrices addresses row ``t`` of the ``(trials,
    n)`` planes seen through :func:`flat_state_view`.  Both results are
    1-D in row-major ``(trial, batch)`` order — the order broadcast 2-D
    fancy indexing visits the lanes in — so last-writer-wins scatters and
    ``np.maximum.at`` merges resolve exactly as they would on the 2-D
    planes.

    Both results are ``np.intp`` for int32 or int64 pair matrices: the
    row offsets are built in NumPy's native index type, so the kernels'
    gathers and scatters index without a per-call cast, and a stack of
    ``rows * n >= 2**31`` slots cannot wrap int32 coordinates to negative
    (which ``take`` would silently read from the end of the plane).
    """
    offsets = np.arange(0, initiators.shape[0] * n, n, dtype=np.intp)[:, None]
    return np.add(initiators, offsets).ravel(), np.add(responders, offsets).ravel()


class VectorizedProtocol(abc.ABC):
    """Interface for protocols that support the struct-of-arrays engine.

    The population state is a dictionary mapping variable names to NumPy
    arrays.  The protocol defines how to create initial arrays of length
    ``n``, how to apply one batch of interactions to a stack of ``(trials,
    n)`` planes, and how to compute the reported output per agent.  The
    exact single-pair transition is the scalar protocol's ``interact``,
    run by the sequential engine.
    """

    #: Human-readable name used in experiment metadata.
    name: str = "vectorized-protocol"

    #: Optional per-variable dtype overrides applied by the ensemble engine
    #: when stacking state (e.g. ``{"time": np.float32}``).  Protocols whose
    #: state values are exactly representable in narrower types can halve
    #: the memory traffic of the stacked hot loop; ``None`` keeps the
    #: dtypes of :meth:`initial_arrays`.  Only the ensemble engine (and so
    #: ``"batched"``) applies these.
    ensemble_state_dtypes: dict[str, np.dtype] | None = None

    @abc.abstractmethod
    def initial_arrays(self, n: int, rng: RandomSource) -> dict[str, np.ndarray]:
        """Create the state arrays for a fresh population of ``n`` agents."""

    @abc.abstractmethod
    def interact_ensemble(
        self,
        arrays: dict[str, np.ndarray],
        initiators: np.ndarray,
        responders: np.ndarray,
        rng: RandomSource,
    ) -> None:
        """Apply one batch of interactions to every trial of a stacked ensemble.

        ``arrays`` holds C-contiguous 2-D state of shape ``(trials, n)`` and
        ``initiators`` / ``responders`` are ``(trials, batch)`` index
        matrices: element ``[t, i]`` describes the ``i``-th interaction of
        trial ``t``'s batch.  Rows never interact.  Responder states are
        read from the arrays as they are at call time (start of the batch);
        initiator writes may overlap, in which case later interactions of
        the batch win.
        """

    @abc.abstractmethod
    def output_array(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """Per-agent reported output (e.g. the estimate of log n)."""

    def tick_count_array(self, arrays: dict[str, np.ndarray]) -> np.ndarray | None:
        """Optional per-agent cumulative tick (reset) counts for clock analysis."""
        return None

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "class": type(self).__name__}
