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

The engine owns the stacked layout: it keeps every plane as a C-contiguous
``(trials, n)`` array and hands each kernel call flat views of those planes
and flat pair coordinates (``row * n + slot``), built once per step, so no
kernel reshapes a plane or offsets an index itself.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.engine.rng import RandomSource

__all__ = ["VectorizedProtocol"]


class VectorizedProtocol(abc.ABC):
    """Interface for protocols that support the struct-of-arrays engine.

    The population state is a dictionary mapping variable names to NumPy
    arrays.  The protocol defines how to create initial arrays of length
    ``n``, how to apply one batch of interactions to a stack of ``(trials,
    n)`` planes (through the flat layout of :meth:`interact_ensemble`), and
    how to compute the reported output per agent of the ``(trials, n)``
    stack.  The engine hands a block's whole step to :meth:`interact_step`,
    whose default loops :meth:`interact_ensemble` over the step's
    sub-batches.  The exact single-pair transition is the scalar protocol's
    ``interact``, run by the sequential engine.
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
        """Apply one batch of interactions to every row of a stacked block.

        The engine owns the layout.  ``arrays`` maps each state variable to
        a flat 1-D *view* of a block of ``rows`` stacked ``(rows, n)``
        planes, so writes land in the engine's state.  ``initiators`` /
        ``responders`` are ``(rows, batch)`` matrices of ``np.intp`` flat
        coordinates into those views (``row * n + slot``): element ``[r,
        i]`` is the ``i``-th interaction of row ``r``'s batch, and
        ``initiators.ravel()`` lists the lanes in the row-major order that
        the random sources' ``lanes`` arguments count in.  The engine builds
        both once per step and block
        (:func:`repro.engine.ensemble_engine.flat_planes`,
        :func:`repro.engine.ensemble_engine.flat_pair_indices`); the
        matrices of one call may be column slices of the step's, so a
        kernel must not assume they are contiguous.

        Rows never interact.  Responder states are read from the planes as
        they are at call time (start of the batch); initiator writes may
        overlap, in which case later interactions of the batch win.
        """

    def interact_step(
        self,
        arrays: dict[str, np.ndarray],
        initiators: np.ndarray,
        responders: np.ndarray,
        chunk: int,
        rng: RandomSource,
    ) -> bool:
        """Apply one parallel step of a stacked block: its sub-batches in order.

        The engine calls this once per step and trial block.  ``arrays``
        are the block's flat plane views and ``initiators`` /
        ``responders`` the ``(rows, n)`` flat coordinates of the block's
        whole step, as for :meth:`interact_ensemble`; the step is cut into
        ``chunk``-wide column slices, each one sub-batch with its own
        responder snapshot, applied left to right.  This default runs
        :meth:`interact_ensemble` on every slice and returns ``False``.

        A protocol may override it to run a step more cheaply when it can
        prove, from the planes and the step's pairs, that the cheaper rule
        writes exactly what the sub-batches of :meth:`interact_ensemble`
        would and draws nothing they would not; it returns ``True`` when
        that quiet rule ran, which the engine counts.
        """
        for start in range(0, initiators.shape[1], chunk):
            self.interact_ensemble(
                arrays,
                initiators[:, start : start + chunk],
                responders[:, start : start + chunk],
                rng,
            )
        return False

    @abc.abstractmethod
    def output_array(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """Per-agent reported output (e.g. the estimate of log n)."""

    def tick_count_array(self, arrays: dict[str, np.ndarray]) -> np.ndarray | None:
        """Optional per-agent cumulative tick (reset) counts for clock analysis."""
        return None

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "class": type(self).__name__}
