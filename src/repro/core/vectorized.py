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

The engine owns the stacked layout: the kernel receives flat plane views
and flat pair coordinates, built once per step by
:mod:`repro.engine.ensemble_engine`, and only gathers and scatters through
them.  Steps in which no reset, backup or adoption can fire (most steps
between reset waves) run lines 13-15 alone, bit-identically
(:meth:`VectorizedDynamicCounting.interact_step`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.params import ProtocolParameters, empirical_parameters
from repro.engine.batch_engine import VectorizedProtocol
from repro.engine.rng import RandomSource

__all__ = ["VectorizedDynamicCounting", "tally_resets"]

#: Conservative bound on any value the inverse-CDF GRV sampler can return
#: (float64 uniforms cap its support around 60; doubled for headroom).  Used
#: to decide whether float32 state planes can represent every countdown
#: value exactly.
_GRV_VALUE_CAP = 128.0


def tally_resets(resets: np.ndarray, slots: np.ndarray) -> None:
    """Add one tick to each distinct slot of the flat ``resets`` plane.

    ``resets`` is the flat view of a block's ``(rows, n)`` reset counts and
    ``slots`` are the flat coordinates (``row * n + slot``) of one batch's
    resetting initiators.  Duplicate initiators of a batch resolve to a
    single surviving state, so they are one reset.  Sparse reset sets
    dedupe through ``np.unique``; dense ones (the warm-up storm) through a
    flag plane.
    """
    if slots.size * 8 < resets.size:
        np.add.at(resets, np.unique(slots), 1)
    else:
        flags = np.zeros(resets.size, dtype=bool)
        flags[slots] = True
        resets += flags


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
        self._constants: dict[tuple[np.dtype, np.dtype], tuple[np.ndarray, ...]] = {}
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
        """One batch on 1-D state: :meth:`interact_ensemble` on one row.

        A 1-D plane is its own flat view and a one-row block's flat
        coordinates are the slots, so this holds no rule of its own.  It
        stays because the benchmark's tracer (``perfbench/tracer.py``)
        wraps this method by name.
        """
        self.interact_ensemble(arrays, initiators[np.newaxis], responders[np.newaxis], rng)

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

    def _typed_constants(self, real: np.dtype, count: np.dtype) -> tuple[np.ndarray, ...]:
        """The kernel's constants as 0-d arrays in the planes' dtypes.

        ``(tau1, tau2, tau3, tau' / tau2, 0, 1)`` in ``real``, the dtype of
        the ``max`` plane (``last_max`` and ``time`` share it: the engine
        narrows the three together), then ``1`` in ``count``, the dtype of
        the ``interactions`` plane.  NumPy converts a Python scalar operand
        anew on every call but takes a 0-d array as it is; either one
        rounds to the plane's dtype the same way, so the results are
        bit-identical.  Built once per pair of dtypes.
        """
        key = (real, count)
        constants = self._constants.get(key)
        if constants is None:
            params = self.params
            reals = (params.tau1, params.tau2, params.tau3, params.tau_prime / params.tau2, 0, 1)
            constants = tuple(np.array(value, dtype=real) for value in reals)
            constants += (np.array(1, dtype=count),)
            self._constants[key] = constants
        return constants

    def interact_ensemble(
        self,
        arrays: dict[str, np.ndarray],
        initiators: np.ndarray,
        responders: np.ndarray,
        rng: RandomSource,
    ) -> None:
        """Algorithm 2 over one batch of every row of a stacked block at once.

        ``arrays`` holds the flat views of the block's planes and the index
        matrices are ``(rows, batch)`` flat coordinates into them, with the
        layout and within-batch semantics of
        :meth:`repro.engine.batch_engine.VectorizedProtocol.interact_ensemble`.
        The kernel is tuned for the stacked hot loop, where small stacks
        are bound by NumPy's fixed cost per operation rather than by lanes:

        * flat-coordinate gathers/scatters (``row * n + slot``) instead of
          broadcast 2-D fancy indexing; the engine builds the views and the
          ``np.intp`` coordinates once per step
          (:func:`~repro.engine.ensemble_engine.flat_pair_indices`), so a
          call neither rebuilds them nor casts an index;
        * one gather per plane for both endpoints: the initiator and
          responder coordinates are concatenated into one index whose
          halves are ``u`` and ``v``, and both endpoints' phase tests run
          in one pass over the doubled vectors;
        * the protocol constants are 0-d arrays in the planes' dtypes
          (:meth:`_typed_constants`), not Python scalars that NumPy
          converts on every operation;
        * NumPy's direct call paths: ndarray methods (``plane.take``,
          ``mask.nonzero()[0]``) rather than the ``np.take`` /
          ``np.flatnonzero`` wrappers, and ``np.where`` over a full-width
          maximum rather than the masked-ufunc (``where=``) path for the
          shared trailing maximum;
        * the rare branches — resets, backup GRVs, maximum adoption — are
          applied on compressed lane indices, and the exchange threshold
          ``tau2 * scale`` and the exchange test are patched at those lanes
          instead of being recomputed full-width, so in the converged
          regime they cost next to nothing; a batch in which none fires
          skips the ``max`` write-back, which would store what it read;
        * fresh GRV maxima come from the one-uniform-per-sample inverse
          CDF (:meth:`repro.engine.rng.RandomSource.geometric_max_array`)
          rather than ``k`` geometric draws per resetting agent, drawn per
          lane (``geometric_max_lanes``) so that a stack with one stream
          per row draws each row's maxima from its own stream;
        * a quiet step never reaches this kernel: :meth:`interact_step`
          certifies once per step that no sub-batch of it can reset, back
          up or adopt (:meth:`_quiet_certificate` states the certificate
          and proves it) and then runs lines 13-15 alone, which is what
          this kernel would do on each of its sub-batches.

        ``tests/test_engine_equivalence.py`` cross-validates the result
        statistically against the exact sequential engine, and
        ``tests/test_vectorized.py::TestLaneOracle`` lane for lane against
        the scalar rule.
        """
        params = self.params
        over = params.overestimation
        grv_k = params.grv_samples

        width = initiators.shape[1]
        lanes = initiators.size
        max_flat = arrays["max"]
        last_flat = arrays["last_max"]
        time_flat = arrays["time"]
        inter_flat = arrays["interactions"]
        dtype = max_flat.dtype
        tau1, tau2, tau3, backup_ratio, zero, one, one_count = self._typed_constants(
            dtype, inter_flat.dtype
        )

        # Snapshot of both participants at the start of the sub-batch: the
        # first half of every doubled vector is the initiators', the second
        # the responders', both in row-major lane order.  (Joining the
        # matrices row-wise and flattening the contiguous result is the
        # same index as ``axis=None``, which flattens each input first.)
        both = np.concatenate((initiators, responders)).ravel()
        flat_u = both[:lanes]
        b_max = max_flat.take(both)
        b_last = last_flat.take(both)
        b_time = time_flat.take(both)
        u_inter = inter_flat.take(flat_u)

        # Both endpoints' phase tests in one pass.  ``b_t2`` becomes the
        # exchange threshold tau2 * max(max, lastMax).  The initiator's
        # exchange test is kept patched through the rare stages below, and
        # its threshold ``u_t2`` up to the backup test, its last reader.
        b_t2 = np.maximum(b_max, b_last)
        b_reset_phase = b_time < tau3 * b_t2
        b_t2 *= tau2
        b_exchange = b_time >= b_t2

        u_max, v_max = b_max[:lanes], b_max[lanes:]
        u_last, v_last = b_last[:lanes], b_last[lanes:]
        u_time, v_time = b_time[:lanes], b_time[lanes:]
        u_t2 = b_t2[:lanes]
        exchange, v_exchange = b_exchange[:lanes], b_exchange[lanes:]
        v_reset_phase = b_reset_phase[lanes:]

        # Lines 2-6: wrap-around / reset->exchange / hold->exchange resets
        # (rare once converged -> compressed lanes).  On booleans ``a > b``
        # is ``a and not b``: here, maxima differ and u is not exchanging.
        reset = u_time <= zero
        in_reset_phase = b_reset_phase[:lanes]
        in_reset_phase &= v_exchange
        reset |= in_reset_phase
        holding = u_max != v_max
        np.greater(holding, exchange, out=holding)
        reset |= holding
        reset_lanes = reset.nonzero()[0]
        max_changed = reset_lanes.size > 0
        if reset_lanes.size:
            fresh = (over * rng.geometric_max_lanes(grv_k, reset_lanes, width)).astype(
                dtype, copy=False
            )
            old_max = u_max[reset_lanes]
            peak = np.maximum(old_max, fresh)
            new_time = tau1 * peak
            new_t2 = tau2 * peak
            u_time[reset_lanes] = new_time
            u_last[reset_lanes] = old_max
            u_max[reset_lanes] = fresh
            u_inter[reset_lanes] = 0
            u_t2[reset_lanes] = new_t2
            exchange[reset_lanes] = new_time >= new_t2

        # Lines 7-10: backup GRV generation (rare).  The threshold
        # tau' * scale is tau' / tau2 times the maintained u_t2.
        backup_lanes = (u_inter > backup_ratio * u_t2).nonzero()[0]
        if backup_lanes.size:
            backup = rng.geometric_max_lanes(grv_k, backup_lanes, width)
            u_inter[backup_lanes] = 0
            adopt_backup = backup > u_max[backup_lanes]
            boosted_lanes = backup_lanes[adopt_backup]
            if boosted_lanes.size:
                max_changed = True
                boosted = (over * backup[adopt_backup]).astype(dtype, copy=False)
                new_time = tau1 * boosted
                new_t2 = tau2 * np.maximum(boosted, u_last[boosted_lanes])
                u_time[boosted_lanes] = new_time
                u_max[boosted_lanes] = boosted
                exchange[boosted_lanes] = new_time >= new_t2

        # Lines 11-12: adopt a larger maximum within the exchange phase.
        adopt = exchange & v_exchange
        adopt &= u_max < v_max
        adopt_lanes = adopt.nonzero()[0]
        if adopt_lanes.size:
            max_changed = True
            adopted = v_max[adopt_lanes]
            new_last = v_last[adopt_lanes]
            new_time = tau1 * adopted
            new_t2 = tau2 * np.maximum(adopted, new_last)
            u_time[adopt_lanes] = new_time
            u_max[adopt_lanes] = adopted
            u_last[adopt_lanes] = new_last
            exchange[adopt_lanes] = new_time >= new_t2

        # Lines 13-14: exchange the trailing maximum (the common branch).
        # Equal maxima share, unless u exchanges while v resets.
        exchange &= v_reset_phase
        share = u_max == v_max
        np.greater(share, exchange, out=share)
        u_last = np.where(share, np.maximum(u_last, v_last), u_last)

        # Line 15: CHVP countdown plus the interaction counter.
        np.maximum(u_time, v_time, out=u_time)
        u_time -= one
        u_inter += one_count

        # Write back; duplicate lanes resolve last-writer-wins.  Only the
        # rare stages change ``max``: without them its write-back would
        # store the values just gathered.
        if max_changed:
            max_flat[flat_u] = u_max
        last_flat[flat_u] = u_last
        time_flat[flat_u] = u_time
        inter_flat[flat_u] = u_inter

        if reset_lanes.size:
            tally_resets(arrays["resets"], flat_u[reset_lanes])

    def interact_step(
        self,
        arrays: dict[str, np.ndarray],
        initiators: np.ndarray,
        responders: np.ndarray,
        chunk: int,
        rng: RandomSource,
    ) -> bool:
        """One parallel step of a block: the common rule alone when the step is quiet.

        Between reset waves most steps are *quiet*: every agent of a row
        holds the same ``max`` and no countdown or counter of the step can
        reach a reset, a backup or an adoption, so every sub-batch of
        :meth:`interact_ensemble` would run only lines 13-15, with the share
        test true.  :meth:`_quiet_certificate` proves that once per step,
        from the planes and the step's pairs.  A certified step runs each
        ``chunk``-wide sub-batch on that common rule alone: ``lastMax <-
        max(lastMax_u, lastMax_v)``, ``time <- max(time_u, time_v) - 1``,
        ``interactions += 1``, gathered, computed and scattered (last writer
        wins) as the staged kernel does, with no ``max`` write, reset tally
        or random draw.  When every row's ``lastMax`` plane holds one value,
        as it does in almost every quiet step, the share cannot change it
        and the step leaves ``lastMax`` alone too.  The planes end bit for
        bit as the staged kernel leaves them, and every random stream is
        consumed as before.  Any other step runs the staged kernel on every
        sub-batch, unchanged.  Returns whether the quiet rule ran.
        """
        constants = self._typed_constants(arrays["max"].dtype, arrays["interactions"].dtype)
        if not self._quiet_certificate(arrays, initiators, constants):
            return super().interact_step(arrays, initiators, responders, chunk, rng)
        one, one_count = constants[-2:]
        last_flat = arrays["last_max"]
        time_flat = arrays["time"]
        inter_flat = arrays["interactions"]
        # A row whose lastMax is one value keeps it: the share's maximum of
        # two copies of a value is that value.
        last_rows = last_flat.reshape(initiators.shape[0], -1)
        share = not (last_rows.min(axis=1) == last_rows.max(axis=1)).all()
        for start in range(0, initiators.shape[1], chunk):
            sub_u = initiators[:, start : start + chunk]
            lanes = sub_u.size
            both = np.concatenate((sub_u, responders[:, start : start + chunk])).ravel()
            flat_u = both[:lanes]
            if share:
                b_last = last_flat.take(both)
                last_flat[flat_u] = np.maximum(b_last[:lanes], b_last[lanes:])
            b_time = time_flat.take(both)
            u_inter = inter_flat.take(flat_u)
            u_time = np.maximum(b_time[:lanes], b_time[lanes:])
            u_time -= one
            u_inter += one_count
            time_flat[flat_u] = u_time
            inter_flat[flat_u] = u_inter
        return True

    @staticmethod
    def _quiet_certificate(
        arrays: dict[str, np.ndarray], initiators: np.ndarray, constants: tuple[np.ndarray, ...]
    ) -> bool:
        """Whether no sub-batch of the block's step can reset, back up or adopt.

        ``initiators`` are the ``(rows, n)`` flat coordinates of the block's
        whole step, and ``k`` is each agent's number of initiations in it
        (one ``np.bincount``).  Every threshold is computed as the kernel
        computes it: the typed ``constants`` in the planes' dtype.  A row
        is quiet when

        (a) its ``max`` plane is a constant ``M``;
        (b) ``interactions + k - 1 <= backup_ratio * (tau2 * M)`` for every
            agent;
        (c) ``time - k >= 0`` for every agent, and either ``time - k >= tau3
            * L`` for every agent, with ``L = max(M, max lastMax)``, or
            ``max time < tau2 * M``.

        and the step is quiet when every row of the block is.  (a) is tested
        first, so warm-up and reset-wave steps pay two row reductions, not
        the whole certificate.  (As ``M >= 1``, the first branch of (c)
        implies ``time - k >= 0``; testing it for both branches keeps the
        certificate sound on any planes.)

        Proof.  Follow a certified row through its sub-batches while none has
        fired a rare branch.  ``max`` is never written, so it stays ``M``
        and the hold->exchange reset (``max_u != max_v``) and the adoption
        (``max_u < max_v``) read false.  ``lastMax`` changes only through the
        share, a maximum of two ``lastMax`` values, so it only rises and
        stays ``<= L``: every scale ``max(max, lastMax)`` lies in ``[M, L]``,
        and as rounding is monotone, the kernel's thresholds ``tau3 *
        scale``, ``tau2 * scale`` and ``backup_ratio * (tau2 * scale)`` lie
        at or below ``tau3 * L`` and at or above ``tau2 * M`` and
        ``backup_ratio * (tau2 * M)``.  An agent's ``time`` changes only when
        it initiates, to ``max(time_u, time_v) - 1 >= time_u - 1`` (exact,
        as ``time_u >= 1`` below), and its counter only to the value read
        plus one; a sub-batch reads both at its start, so at its ``j``-th
        initiation of the step an agent reads ``time >= time_0 - (j - 1) >=
        time_0 - k + 1 >= 1`` and ``interactions <= interactions_0 + k - 1``,
        and as a responder it reads ``time >= time_0 - k``.  So the
        wrap-around reset (``time_u <= 0``) reads false by (c), and the
        backup test (``interactions_u > backup_ratio * (tau2 * scale)``) by
        (b).  Under the first branch of (c) no initiator or responder is
        ever in the reset phase (``time >= time_0 - k >= tau3 * L >= tau3 *
        scale``), so neither the reset->exchange reset nor the share's
        exception (``u`` exchanging while ``v`` resets) fires.  Under the
        second, the row's largest ``time`` never grows (every write is some
        ``time`` minus one), so no agent is ever in the exchange phase
        (``time < tau2 * M <= tau2 * scale``) and both read false again.
        Every test of lines 2-12 reads false and the share test reads true:
        the staged kernel draws nothing and writes exactly what the quiet
        rule writes, sub-batch by sub-batch.
        """
        _, tau2, tau3, backup_ratio, zero, _, _ = constants
        rows = initiators.shape[0]
        max_rows = arrays["max"].reshape(rows, -1)
        top = max_rows.max(axis=1)
        if not (max_rows.min(axis=1) == top).all():
            return False
        initiations = np.bincount(initiators.ravel(), minlength=max_rows.size)
        low = (arrays["time"] - initiations).reshape(rows, -1).min(axis=1)
        if not (low >= zero).all():
            return False
        most = (arrays["interactions"] + initiations).reshape(rows, -1).max(axis=1)
        if not (most - 1 <= backup_ratio * (tau2 * top)).all():
            return False
        reach = np.maximum(top, arrays["last_max"].reshape(rows, -1).max(axis=1))
        quiet = low >= tau3 * reach
        if quiet.all():
            return True
        quiet |= arrays["time"].reshape(rows, -1).max(axis=1) < tau2 * top
        return bool(quiet.all())

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
