"""Vectorised (batched) implementation of the dynamic size counting protocol.

The paper simulates populations of up to 10^6 agents for 5000 parallel time
steps — about 5 * 10^9 interactions, far beyond a pure-Python loop.  This
module provides a NumPy struct-of-arrays implementation of Algorithm 2 that
plugs into :class:`repro.engine.ensemble_engine.EnsembleSimulator` (the
``"batched"`` and ``"ensemble"`` engines): each parallel time step draws
``n`` ordered interaction pairs per trial and applies the transition to all
of them with responder states read at the start of the batch.

The vectorised transition mirrors :class:`repro.core.dynamic_counting.
DynamicSizeCounting` line by line (the comments reference the same Algorithm
2 line numbers).  It is an approximation of the sequential scheduler — see
the module docstring of :mod:`repro.engine.batch_engine` for the exact
semantics and ``tests/test_engine_equivalence.py`` for the statistical
cross-validation against the exact engine.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.params import ProtocolParameters, empirical_parameters
from repro.engine.batch_engine import (
    VectorizedProtocol,
    flat_pair_indices,
    flat_state_view,
)
from repro.engine.rng import RandomSource

__all__ = ["VectorizedDynamicCounting", "tally_resets"]

#: Conservative bound on any value the inverse-CDF GRV sampler can return
#: (float64 uniforms cap its support around 60; doubled for headroom).  Used
#: to decide whether float32 state planes can represent every countdown
#: value exactly.
_GRV_VALUE_CAP = 128.0


def tally_resets(resets: np.ndarray, slots: np.ndarray) -> None:
    """Add one tick to each distinct flat slot of the ``(trials, n)`` ``resets`` plane.

    ``slots`` are the flat coordinates (``trial * n + slot``) of one
    batch's resetting initiators.  Duplicate initiators of a batch resolve
    to a single surviving state, so they are one reset.  Sparse reset sets
    dedupe through ``np.unique``; dense ones (the warm-up storm) through a
    flag plane.
    """
    resets_flat = flat_state_view(resets)
    if slots.size * 8 < resets_flat.size:
        np.add.at(resets_flat, np.unique(slots), 1)
    else:
        flags = np.zeros(resets_flat.size, dtype=bool)
        flags[slots] = True
        resets_flat += flags


class VectorizedDynamicCounting(VectorizedProtocol):
    """Struct-of-arrays Algorithm 2 for the batched/ensemble engines.

    State arrays
    ------------
    ``max``          float64 — the (possibly overestimated) maximum GRV.
    ``last_max``     float64 — the trailing estimate.
    ``time``         float64 — the CHVP countdown.
    ``interactions`` int64   — interactions since the agent's last reset.
    ``resets``       int64   — cumulative reset count (tick counter; not part
                               of the protocol state, used by clock analysis).

    The ensemble engine narrows the first four planes per
    :attr:`ensemble_state_dtypes`.
    """

    name = "vectorized-dynamic-size-counting"

    def __init__(self, params: ProtocolParameters | None = None) -> None:
        self.params = params if params is not None else empirical_parameters()
        # The narrow float32 planes are only used while every state value —
        # including products of a tau constant with any plane value the
        # engine's narrowing guard admits (|v| <= 2^16) — stays inside
        # float32's exact-integer range (|v| < 2^24); beyond it the CHVP
        # countdown's -1 per interaction would be silently rounded away.
        # The paper's empirical constants pass easily; the theory presets
        # (tau1 = 1140k, overestimation = 20(k+1)) do not and fall back to
        # the initial_arrays dtypes (float64).
        max_tau = max(self.params.tau1, self.params.tau2, self.params.tau3)
        worst_time = max_tau * self.params.overestimation * _GRV_VALUE_CAP
        if worst_time > 2.0**23 or max_tau > _GRV_VALUE_CAP:
            self.ensemble_state_dtypes = None

    # ------------------------------------------------------------------ setup

    def initial_arrays(self, n: int, rng: RandomSource) -> dict[str, np.ndarray]:
        """Fresh agents: ``max = lastMax = 1``, ``time = tau_1``, ``interactions = 0``."""
        params = self.params
        return {
            "max": np.ones(n, dtype=np.float64),
            "last_max": np.ones(n, dtype=np.float64),
            "time": np.full(n, params.tau1, dtype=np.float64),
            "interactions": np.zeros(n, dtype=np.int64),
            "resets": np.zeros(n, dtype=np.int64),
        }

    def initial_arrays_with_estimate(self, n: int, estimate: float) -> dict[str, np.ndarray]:
        """Population initialised with a fixed estimate (the Fig. 5 workload)."""
        if estimate <= 0:
            raise ValueError(f"estimate must be positive, got {estimate}")
        params = self.params
        stored = estimate * params.overestimation
        return {
            "max": np.full(n, stored, dtype=np.float64),
            "last_max": np.full(n, stored, dtype=np.float64),
            "time": np.full(n, params.tau1 * stored, dtype=np.float64),
            "interactions": np.zeros(n, dtype=np.int64),
            "resets": np.zeros(n, dtype=np.int64),
        }

    # ------------------------------------------------------------ interaction

    def interact_batch(
        self,
        arrays: dict[str, np.ndarray],
        initiators: np.ndarray,
        responders: np.ndarray,
        rng: RandomSource,
    ) -> None:
        """One batch on 1-D state: :meth:`interact_ensemble` on ``(1, n)`` views.

        Holds no rule of its own.  It stays because the benchmark's tracer
        (``perfbench/tracer.py``) wraps this method by name.
        """
        self.interact_ensemble(
            {key: arr[np.newaxis] for key, arr in arrays.items()},
            initiators[np.newaxis],
            responders[np.newaxis],
            rng,
        )

    #: Ensemble state is held in narrow planes: with integer-valued protocol
    #: constants (the paper's presets) every ``max`` / ``lastMax`` / ``time``
    #: value is exactly representable in float32 (magnitudes stay far below
    #: 2^24), so the stacked hot loop halves its memory traffic without
    #: changing a single trajectory decision.  ``resets`` keeps the dtype of
    #: :meth:`initial_arrays`.
    ensemble_state_dtypes = {
        "max": np.dtype(np.float32),
        "last_max": np.dtype(np.float32),
        "time": np.dtype(np.float32),
        "interactions": np.dtype(np.int32),
    }

    def interact_ensemble(
        self,
        arrays: dict[str, np.ndarray],
        initiators: np.ndarray,
        responders: np.ndarray,
        rng: RandomSource,
    ) -> None:
        """Algorithm 2 over one batch of every stacked trial at once.

        ``arrays`` holds ``(trials, n)`` stacks and the index matrices are
        ``(trials, batch)``, with the within-batch semantics of
        :meth:`repro.engine.batch_engine.VectorizedProtocol.interact_ensemble`.
        The kernel is tuned for the stacked hot loop:

        * flat-coordinate gathers/scatters (``trial * n + slot``) instead
          of broadcast 2-D fancy indexing, with the coordinates already in
          ``np.intp`` (:func:`~repro.engine.batch_engine.flat_pair_indices`)
          so no gather or scatter casts its index;
        * NumPy's direct call paths, which cut the fixed cost per call that
          dominates small stacks: ndarray methods (``plane.take``,
          ``mask.nonzero()[0]``) rather than the ``np.take`` /
          ``np.flatnonzero`` wrappers, and ``np.where`` over a full-width
          maximum rather than the masked-ufunc (``where=``) path for the
          shared trailing maximum;
        * the rare branches — resets, backup GRVs, maximum adoption — are
          applied on compressed lane indices and the phase threshold
          ``tau2 * scale`` is patched at those lanes instead of being
          recomputed full-width, so in the converged regime they cost next
          to nothing;
        * fresh GRV maxima come from the one-uniform-per-sample inverse
          CDF (:meth:`repro.engine.rng.RandomSource.geometric_max_array`)
          rather than ``k`` geometric draws per resetting agent, drawn per
          lane (``geometric_max_lanes``) so that a stack with one stream
          per row draws each row's maxima from its own stream.

        ``tests/test_engine_equivalence.py`` cross-validates the result
        statistically against the exact sequential engine.
        """
        params = self.params
        tau1, tau2, tau3 = params.tau1, params.tau2, params.tau3
        over = params.overestimation
        grv_k = params.grv_samples

        width = initiators.shape[1]
        flat_u, flat_v = flat_pair_indices(initiators, responders, arrays["max"].shape[1])
        max_flat = flat_state_view(arrays["max"])
        last_flat = flat_state_view(arrays["last_max"])
        time_flat = flat_state_view(arrays["time"])
        inter_flat = flat_state_view(arrays["interactions"])
        dtype = max_flat.dtype

        # Snapshot of both participants at the start of the sub-batch.
        u_max = max_flat.take(flat_u)
        u_last = last_flat.take(flat_u)
        u_time = time_flat.take(flat_u)
        u_inter = inter_flat.take(flat_u)
        v_max = max_flat.take(flat_v)
        v_last = last_flat.take(flat_v)
        v_time = time_flat.take(flat_v)

        v_scale = np.maximum(v_max, v_last)
        v_exchange = v_time >= tau2 * v_scale
        np.multiply(v_scale, tau3, out=v_scale)
        v_reset_phase = v_time < v_scale

        # Lines 2-6: wrap-around / reset->exchange / hold->exchange resets
        # (rare once converged -> compressed lanes).  ``u_t2`` (the exchange
        # threshold tau2 * max(max, lastMax)) is kept patched through the
        # rare stages below and reused by every later phase test.
        u_t2 = np.maximum(u_max, u_last)
        in_reset_phase = u_time < tau3 * u_t2
        np.multiply(u_t2, tau2, out=u_t2)
        reset = u_time <= 0
        in_reset_phase &= v_exchange
        reset |= in_reset_phase
        holding = u_time < u_t2
        holding &= u_max != v_max
        reset |= holding
        reset_lanes = reset.nonzero()[0]
        if reset_lanes.size:
            fresh = (over * rng.geometric_max_lanes(grv_k, reset_lanes, width)).astype(
                dtype, copy=False
            )
            old_max = u_max[reset_lanes]
            peak = np.maximum(old_max, fresh)
            u_time[reset_lanes] = tau1 * peak
            u_last[reset_lanes] = old_max
            u_max[reset_lanes] = fresh
            u_inter[reset_lanes] = 0
            u_t2[reset_lanes] = tau2 * peak

        # Lines 7-10: backup GRV generation (rare).  The threshold
        # tau' * scale is tau' / tau2 times the maintained u_t2.
        backup_lanes = (u_inter > (params.tau_prime / tau2) * u_t2).nonzero()[0]
        if backup_lanes.size:
            backup = rng.geometric_max_lanes(grv_k, backup_lanes, width)
            u_inter[backup_lanes] = 0
            adopt_backup = backup > u_max[backup_lanes]
            boosted_lanes = backup_lanes[adopt_backup]
            if boosted_lanes.size:
                boosted = (over * backup[adopt_backup]).astype(dtype, copy=False)
                u_time[boosted_lanes] = tau1 * boosted
                u_max[boosted_lanes] = boosted
                u_t2[boosted_lanes] = tau2 * np.maximum(boosted, u_last[boosted_lanes])

        # Lines 11-12: adopt a larger maximum within the exchange phase.
        exchange = u_time >= u_t2
        adopt = exchange & v_exchange
        adopt &= u_max < v_max
        adopt_lanes = adopt.nonzero()[0]
        if adopt_lanes.size:
            adopted = v_max[adopt_lanes]
            new_last = v_last[adopt_lanes]
            u_time[adopt_lanes] = tau1 * adopted
            u_max[adopt_lanes] = adopted
            u_last[adopt_lanes] = new_last
            u_t2[adopt_lanes] = tau2 * np.maximum(adopted, new_last)
            # Only the adopted lanes changed time/threshold since `exchange`
            # was computed; patch them instead of a full-width recompute.
            exchange[adopt_lanes] = u_time[adopt_lanes] >= u_t2[adopt_lanes]

        # Lines 13-14: exchange the trailing maximum (the common branch).
        share = u_max == v_max
        exchange &= v_reset_phase
        np.logical_not(exchange, out=exchange)
        share &= exchange
        u_last = np.where(share, np.maximum(u_last, v_last), u_last)

        # Line 15: CHVP countdown plus the interaction counter.
        np.maximum(u_time, v_time, out=u_time)
        u_time -= 1.0
        u_inter += 1

        # Write back; duplicate lanes resolve last-writer-wins.
        max_flat[flat_u] = u_max
        last_flat[flat_u] = u_last
        time_flat[flat_u] = u_time
        inter_flat[flat_u] = u_inter

        if reset_lanes.size:
            tally_resets(arrays["resets"], flat_u[reset_lanes])

    # ---------------------------------------------------------------- outputs

    def output_array(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """Per-agent reported estimate of ``log2 n`` (Section 5 convention)."""
        return np.maximum(arrays["max"], arrays["last_max"]) / self.params.overestimation

    def tick_count_array(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """Cumulative reset (tick) counts per agent."""
        return arrays["resets"]

    def phase_codes(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """Per-agent phase codes: 0 = exchange, 1 = hold, 2 = reset."""
        params = self.params
        scale = np.maximum(arrays["max"], arrays["last_max"])
        time = arrays["time"]
        codes = np.full(len(time), 2, dtype=np.int8)
        codes[time >= params.tau3 * scale] = 1
        codes[time >= params.tau2 * scale] = 0
        return codes

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "class": type(self).__name__,
            "params": self.params.describe(),
        }
