"""Fused loop kernels for the hot protocols, compiled with Numba when present.

Each kernel below is an explicit-loop reformulation of one vectorised
protocol's ``interact_ensemble``: the gather → branch → scatter sequence
that NumPy spreads over dozens of full-width temporaries (and compressed
lane indices for the rare branches) becomes a single pass over
preallocated scratch buffers.  The functions are written in the
numba-compilable subset of Python and are *bit-parity* replacements — under
a shared seed they must produce exactly the arrays the NumPy kernels
produce (``tests/test_jit_kernels.py`` asserts element-for-element
equality).  Three rules keep that true:

* **No randomness inside kernels.**  Numba's RNG is not NumPy's
  ``Generator`` stream, so every random draw happens outside, with exactly
  the same ``Generator`` calls in exactly the same order as the NumPy
  kernels.  Where the number of draws depends on data (dynamic counting's
  resets and backups), the kernel is *phased*: one phase returns the lane
  count, Python draws, the next phase consumes the draws in lane order.
* **Scatter order replicates fancy indexing.**  All reads happen before any
  write (matching the batch-start snapshot semantics), duplicate indices
  resolve last-writer-wins in index order (matching fancy assignment), and
  monotone merges apply an in-order cumulative max (matching
  ``np.maximum.at``).
* **Dtype discipline.**  The ensemble planes may be float32; every constant
  crosses the kernel boundary pre-cast to the plane dtype (NEP 50 weak
  scalars compute in the array's dtype — a float64 constant inside the
  kernel would silently promote and diverge by an ulp).

The wrapper classes subclass the NumPy implementations and fall back to
``super()`` whenever :func:`kernel_table` returns ``None`` (numba missing
or ``REPRO_DISABLE_JIT`` set), so the pure-NumPy reference path is always
one attribute lookup away.  The uncompiled Python kernels are themselves
runnable (slowly) — :func:`use_kernel_table` injects them so the kernel
logic is testable without numba installed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.batch_engine import flat_state_view
from repro.kernels.availability import availability
from repro.protocols.vectorized import (
    VectorizedApproximateMajority,
    VectorizedInfectionEpidemic,
    VectorizedJuntaElection,
    VectorizedMaxEpidemic,
)

__all__ = [
    "PYTHON_KERNELS",
    "kernel_table",
    "python_kernels",
    "use_kernel_table",
    "JitVectorizedDynamicCounting",
    "JitVectorizedMaxEpidemic",
    "JitVectorizedInfectionEpidemic",
    "JitVectorizedJuntaElection",
    "JitVectorizedApproximateMajority",
]


# ----------------------------------------------------------- majority kernels


def _majority_ensemble(opinion, initiators, responders, new_u, new_v):
    trials = initiators.shape[0]
    m = initiators.shape[1]
    for t in range(trials):
        for i in range(m):
            u = opinion[t, initiators[t, i]]
            v = opinion[t, responders[t, i]]
            nu = u
            if u == 0 and v != 0:
                nu = v
            if v == 0 and u != 0:
                nv = u
            elif u != 0 and v != 0 and u == -v:
                nv = 0
            else:
                nv = v
            new_u[t, i] = nu
            new_v[t, i] = nv
    for t in range(trials):
        for i in range(m):
            opinion[t, initiators[t, i]] = new_u[t, i]
    for t in range(trials):
        for i in range(m):
            opinion[t, responders[t, i]] = new_v[t, i]


# ----------------------------------------------------------- epidemic kernels


def _max_epidemic_ensemble(value, initiators, responders, peak, two_way):
    trials = initiators.shape[0]
    m = initiators.shape[1]
    for t in range(trials):
        for i in range(m):
            a = value[t, initiators[t, i]]
            b = value[t, responders[t, i]]
            peak[t, i] = a if a >= b else b
    for t in range(trials):
        for i in range(m):
            j = initiators[t, i]
            if peak[t, i] > value[t, j]:
                value[t, j] = peak[t, i]
    if two_way:
        for t in range(trials):
            for i in range(m):
                j = responders[t, i]
                if peak[t, i] > value[t, j]:
                    value[t, j] = peak[t, i]


def _infection_ensemble(infected, initiators, responders, peak, one_way):
    trials = initiators.shape[0]
    m = initiators.shape[1]
    if one_way:
        for t in range(trials):
            for i in range(m):
                peak[t, i] = infected[t, responders[t, i]]
    else:
        for t in range(trials):
            for i in range(m):
                a = infected[t, initiators[t, i]]
                b = infected[t, responders[t, i]]
                peak[t, i] = a if a >= b else b
    for t in range(trials):
        for i in range(m):
            j = initiators[t, i]
            if peak[t, i] > infected[t, j]:
                infected[t, j] = peak[t, i]
    if not one_way:
        for t in range(trials):
            for i in range(m):
                j = responders[t, i]
                if peak[t, i] > infected[t, j]:
                    infected[t, j] = peak[t, i]


# -------------------------------------------------------------- junta kernels


def _junta_ensemble(
    level, climbing, max_seen, initiators, responders, coins, max_level,
    new_level, new_climb, top,
):
    trials = initiators.shape[0]
    m = initiators.shape[1]
    c = 0
    for t in range(trials):
        for i in range(m):
            u = initiators[t, i]
            v = responders[t, i]
            u_level = level[t, u]
            climb = climbing[t, u] != 0
            coin = False
            if climb:
                coin = coins[c]
                c += 1
            up = climb and coin and (u_level < max_level)
            nl = u_level + 1 if up else u_level
            new_level[t, i] = nl
            new_climb[t, i] = 1 if up else 0
            t_val = nl
            if max_seen[t, u] > t_val:
                t_val = max_seen[t, u]
            if level[t, v] > t_val:
                t_val = level[t, v]
            if max_seen[t, v] > t_val:
                t_val = max_seen[t, v]
            top[t, i] = t_val
    for t in range(trials):
        for i in range(m):
            level[t, initiators[t, i]] = new_level[t, i]
    for t in range(trials):
        for i in range(m):
            climbing[t, initiators[t, i]] = new_climb[t, i]
    for t in range(trials):
        for i in range(m):
            j = initiators[t, i]
            if top[t, i] > max_seen[t, j]:
                max_seen[t, j] = top[t, i]
    for t in range(trials):
        for i in range(m):
            j = responders[t, i]
            if top[t, i] > max_seen[t, j]:
                max_seen[t, j] = top[t, i]
    return c


# ------------------------------------- dynamic counting, ensemble (any dtype)
#
# Mirrors the flat-lane ensemble kernel of VectorizedDynamicCounting: lanes
# are walked in row-major (trial, batch) order — the order of the NumPy
# kernel's flattened index vectors — and every constant arrives pre-cast to
# the plane dtype so float32 planes compute exactly what NEP 50 weak
# scalars compute in the NumPy path.


def _counting_ensemble_gather(
    max2d, last2d, time2d, inter2d, initiators, responders,
    u_max, u_last, u_time, u_inter, v_max, v_last, v_time,
    u_t2, v_exchange, v_reset_phase, reset_mask, tau2, tau3,
):
    trials = initiators.shape[0]
    m = initiators.shape[1]
    count = 0
    p = 0
    for t in range(trials):
        for i in range(m):
            u = initiators[t, i]
            v = responders[t, i]
            um = max2d[t, u]
            ul = last2d[t, u]
            ut = time2d[t, u]
            vm = max2d[t, v]
            vl = last2d[t, v]
            vt = time2d[t, v]
            u_max[p] = um
            u_last[p] = ul
            u_time[p] = ut
            u_inter[p] = inter2d[t, u]
            v_max[p] = vm
            v_last[p] = vl
            v_time[p] = vt
            vs = vm if vm >= vl else vl
            vx = vt >= tau2 * vs
            v_exchange[p] = vx
            v_reset_phase[p] = vt < tau3 * vs
            s = um if um >= ul else ul
            in_reset_phase = ut < tau3 * s
            t2 = tau2 * s
            u_t2[p] = t2
            # Lines 2-6: wrap-around / reset->exchange / hold->exchange.
            reset = ut <= 0.0
            if not reset and in_reset_phase and vx:
                reset = True
            if not reset and (ut < t2) and um != vm:
                reset = True
            reset_mask[p] = reset
            if reset:
                count += 1
            p += 1
    return count


def _counting_ensemble_reset(
    u_max, u_last, u_time, u_inter, u_t2, reset_mask, fresh_vals,
    backup_mask, tau1, tau2, ratio,
):
    lanes = u_max.shape[0]
    c = 0
    count = 0
    for p in range(lanes):
        if reset_mask[p]:
            fresh = fresh_vals[c]
            c += 1
            old_max = u_max[p]
            peak = old_max if old_max >= fresh else fresh
            u_time[p] = tau1 * peak
            u_last[p] = old_max
            u_max[p] = fresh
            u_inter[p] = 0
            u_t2[p] = tau2 * peak
        # Lines 7-8: the backup threshold tau' * scale is ratio * u_t2.
        due = u_inter[p] > ratio * u_t2[p]
        backup_mask[p] = due
        if due:
            count += 1
    return count


def _counting_ensemble_finish(
    max2d, last2d, time2d, inter2d, initiators,
    u_max, u_last, u_time, u_inter, u_t2,
    v_max, v_last, v_time, v_exchange, v_reset_phase,
    backup_mask, backup_raw, boosted_vals, tau1, tau2, one,
):
    trials = initiators.shape[0]
    m = initiators.shape[1]
    c = 0
    p = 0
    for t in range(trials):
        for i in range(m):
            nm = u_max[p]
            nl = u_last[p]
            nt = u_time[p]
            ni = u_inter[p]
            t2 = u_t2[p]
            # Lines 9-10: adopt the backup GRV when it beats the current max.
            if backup_mask[p]:
                raw = backup_raw[c]
                boosted = boosted_vals[c]
                c += 1
                ni = 0
                if raw > nm:
                    nt = tau1 * boosted
                    nm = boosted
                    peak = boosted if boosted >= nl else nl
                    t2 = tau2 * peak
            # Lines 11-12: adopt a larger maximum within the exchange phase.
            exchange = nt >= t2
            if exchange and v_exchange[p] and nm < v_max[p]:
                adopted = v_max[p]
                new_last = v_last[p]
                nt = tau1 * adopted
                nm = adopted
                nl = new_last
                peak = adopted if adopted >= new_last else new_last
                t2 = tau2 * peak
                exchange = nt >= t2
            # Lines 13-14: exchange the trailing maximum.
            if nm == v_max[p] and not (exchange and v_reset_phase[p]):
                if v_last[p] > nl:
                    nl = v_last[p]
            # Line 15: CHVP countdown plus the interaction counter.
            if v_time[p] > nt:
                nt = v_time[p]
            nt = nt - one
            ni = ni + 1
            j = initiators[t, i]
            max2d[t, j] = nm
            last2d[t, j] = nl
            time2d[t, j] = nt
            inter2d[t, j] = ni
            p += 1
    return c


# -------------------------------------------------------------- kernel table

#: The uncompiled kernel functions, by name.  :func:`kernel_table` compiles
#: this table with ``numba.njit(cache=True)`` on first use.
PYTHON_KERNELS: dict[str, Callable[..., Any]] = {
    "majority_ensemble": _majority_ensemble,
    "max_epidemic_ensemble": _max_epidemic_ensemble,
    "infection_ensemble": _infection_ensemble,
    "junta_ensemble": _junta_ensemble,
    "counting_ensemble_gather": _counting_ensemble_gather,
    "counting_ensemble_reset": _counting_ensemble_reset,
    "counting_ensemble_finish": _counting_ensemble_finish,
}

_COMPILED: dict[str, Callable[..., Any]] | None = None
_OVERRIDE: dict[str, Callable[..., Any]] | None = None


def python_kernels() -> dict[str, Callable[..., Any]]:
    """A fresh copy of the uncompiled kernel table (for tests and debugging)."""
    return dict(PYTHON_KERNELS)


def _compile_kernels() -> dict[str, Callable[..., Any]]:
    from numba import njit

    compile_one = njit(cache=True)
    return {name: compile_one(fn) for name, fn in PYTHON_KERNELS.items()}


def kernel_table() -> dict[str, Callable[..., Any]] | None:
    """The active kernel table, or ``None`` for the pure-NumPy fallback.

    Resolution order: a test override installed by :func:`use_kernel_table`,
    then the njit-compiled table when :func:`~repro.kernels.availability.
    availability` allows it (compiled once per process, lazily), else
    ``None``.  Resolved at *call* time by the wrapper classes, so wrappers
    stay picklable for the sharded execution layer and react to
    ``REPRO_DISABLE_JIT`` without rebuilding engines.
    """
    global _COMPILED
    if _OVERRIDE is not None:
        return _OVERRIDE
    if not availability().enabled:
        return None
    if _COMPILED is None:
        _COMPILED = _compile_kernels()
    return _COMPILED


@contextmanager
def use_kernel_table(table: dict[str, Callable[..., Any]]) -> Iterator[None]:
    """Force a specific kernel table while the context is active.

    The parity tests inject :func:`python_kernels` so the kernel *logic*
    executes (interpreted) even on machines without numba.
    """
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = table
    try:
        yield
    finally:
        _OVERRIDE = previous


# ------------------------------------------------------------ scratch buffers


class _ScratchPool:
    """Reusable per-wrapper scratch buffers, grown geometrically on demand."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, key: str, size: int, dtype: np.dtype) -> np.ndarray:
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape[0] < size or buffer.dtype != dtype:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._buffers[key] = buffer
        return buffer[:size]


class _PooledMixin:
    """Lazily attached scratch pool (kept out of ``__init__`` chains)."""

    #: Marker consulted by the dispatch layer (a wrapper is never re-wrapped).
    jit_backend = True

    @property
    def _pool(self) -> _ScratchPool:
        pool = self.__dict__.get("_scratch_pool")
        if pool is None:
            pool = _ScratchPool()
            self.__dict__["_scratch_pool"] = pool
        return pool


_EMPTY_BOOL = np.empty(0, dtype=bool)


# ------------------------------------------------------------ wrapper classes


class JitVectorizedApproximateMajority(_PooledMixin, VectorizedApproximateMajority):
    """Fused-kernel approximate majority (NumPy fallback via ``super()``)."""

    name = "jit-approximate-majority"

    def interact_ensemble(self, arrays, initiators, responders, rng) -> None:
        kernels = kernel_table()
        if kernels is None:
            return super().interact_ensemble(arrays, initiators, responders, rng)
        opinion = arrays["opinion"]
        lanes = initiators.size
        pool = self._pool
        new_u = pool.get("new_u", lanes, opinion.dtype).reshape(initiators.shape)
        new_v = pool.get("new_v", lanes, opinion.dtype).reshape(initiators.shape)
        kernels["majority_ensemble"](opinion, initiators, responders, new_u, new_v)


class JitVectorizedMaxEpidemic(_PooledMixin, VectorizedMaxEpidemic):
    """Fused-kernel max-propagation epidemic."""

    name = "jit-max-epidemic"

    def interact_ensemble(self, arrays, initiators, responders, rng) -> None:
        kernels = kernel_table()
        if kernels is None:
            return super().interact_ensemble(arrays, initiators, responders, rng)
        value = arrays["value"]
        peak = self._pool.get("peak", initiators.size, value.dtype).reshape(
            initiators.shape
        )
        kernels["max_epidemic_ensemble"](
            value, initiators, responders, peak, not self.one_way
        )


class JitVectorizedInfectionEpidemic(_PooledMixin, VectorizedInfectionEpidemic):
    """Fused-kernel binary SI epidemic."""

    name = "jit-infection-epidemic"

    def interact_ensemble(self, arrays, initiators, responders, rng) -> None:
        kernels = kernel_table()
        if kernels is None:
            return super().interact_ensemble(arrays, initiators, responders, rng)
        infected = arrays["infected"]
        peak = self._pool.get("peak", initiators.size, infected.dtype).reshape(
            initiators.shape
        )
        kernels["infection_ensemble"](
            infected, initiators, responders, peak, self.one_way
        )


class JitVectorizedJuntaElection(_PooledMixin, VectorizedJuntaElection):
    """Fused-kernel junta election.

    The coin flips are drawn *outside* the kernel with exactly the NumPy
    kernel's call (`integers(0, 2, size=climbers)` over the climbing
    initiators of the batch snapshot); the kernel assigns them to climbing
    lanes in index order, matching the boolean-mask fill.
    """

    name = "jit-junta-election"

    def _draw_coins(self, climbing_lanes: np.ndarray, rng) -> np.ndarray:
        climbers = int(np.count_nonzero(climbing_lanes))
        if not climbers:
            return _EMPTY_BOOL
        return rng.generator.integers(0, 2, size=climbers).astype(bool)

    def interact_ensemble(self, arrays, initiators, responders, rng) -> None:
        kernels = kernel_table()
        if kernels is None:
            return super().interact_ensemble(arrays, initiators, responders, rng)
        level = arrays["level"]
        climbing = arrays["climbing"]
        max_seen = arrays["max_seen"]
        coins = self._draw_coins(np.take_along_axis(climbing, initiators, axis=1), rng)
        lanes = initiators.size
        pool = self._pool
        shape = initiators.shape
        new_level = pool.get("new_level", lanes, level.dtype).reshape(shape)
        new_climb = pool.get("new_climb", lanes, climbing.dtype).reshape(shape)
        top = pool.get("top", lanes, max_seen.dtype).reshape(shape)
        kernels["junta_ensemble"](
            level, climbing, max_seen, initiators, responders, coins,
            self.max_level, new_level, new_climb, top,
        )


class JitVectorizedDynamicCounting(_PooledMixin, VectorizedDynamicCounting):
    """Fused-kernel Algorithm 2 (dynamic size counting).

    The GRV draw counts are data-dependent, so the kernel runs in three
    phases: gather (returns the reset-lane count) → Python draws the fresh
    GRV maxima with the NumPy kernel's exact generator calls → reset
    (returns the backup-lane count) → Python draws the backups → finish
    (adopt/share/countdown + scatter).  ``over``-scaling and the plane-dtype
    cast happen on the Python side so the kernels never touch float64
    constants on float32 planes.
    """

    name = "jit-dynamic-size-counting"

    def interact_ensemble(self, arrays, initiators, responders, rng) -> None:
        kernels = kernel_table()
        if kernels is None:
            return super().interact_ensemble(arrays, initiators, responders, rng)
        params = self.params
        over = params.overestimation
        grv_k = params.grv_samples
        max2d = arrays["max"]
        dtype = max2d.dtype
        trials, n = max2d.shape
        lanes = initiators.size
        pool = self._pool
        u_max = pool.get("e_u_max", lanes, dtype)
        u_last = pool.get("e_u_last", lanes, dtype)
        u_time = pool.get("e_u_time", lanes, dtype)
        u_inter = pool.get("e_u_inter", lanes, arrays["interactions"].dtype)
        u_t2 = pool.get("e_u_t2", lanes, dtype)
        v_max = pool.get("e_v_max", lanes, dtype)
        v_last = pool.get("e_v_last", lanes, dtype)
        v_time = pool.get("e_v_time", lanes, dtype)
        v_exchange = pool.get("e_v_ex", lanes, np.dtype(bool))
        v_reset_phase = pool.get("e_v_rp", lanes, np.dtype(bool))
        reset_mask = pool.get("e_reset", lanes, np.dtype(bool))
        backup_mask = pool.get("e_backup", lanes, np.dtype(bool))
        tau1 = dtype.type(params.tau1)
        tau2 = dtype.type(params.tau2)
        tau3 = dtype.type(params.tau3)
        ratio = dtype.type(params.tau_prime / params.tau2)
        one = dtype.type(1.0)

        reset_count = int(
            kernels["counting_ensemble_gather"](
                max2d, arrays["last_max"], arrays["time"],
                arrays["interactions"], initiators, responders,
                u_max, u_last, u_time, u_inter, v_max, v_last, v_time,
                u_t2, v_exchange, v_reset_phase, reset_mask, tau2, tau3,
            )
        )
        if reset_count:
            fresh_vals = (over * rng.geometric_max_array(grv_k, reset_count)).astype(
                dtype, copy=False
            )
        else:
            fresh_vals = np.empty(0, dtype=dtype)
        backup_count = int(
            kernels["counting_ensemble_reset"](
                u_max, u_last, u_time, u_inter, u_t2, reset_mask, fresh_vals,
                backup_mask, tau1, tau2, ratio,
            )
        )
        if backup_count:
            backup_raw = rng.geometric_max_array(grv_k, backup_count)
            boosted_vals = (over * backup_raw).astype(dtype, copy=False)
        else:
            backup_raw = np.empty(0, dtype=np.float64)
            boosted_vals = np.empty(0, dtype=dtype)
        kernels["counting_ensemble_finish"](
            max2d, arrays["last_max"], arrays["time"],
            arrays["interactions"], initiators,
            u_max, u_last, u_time, u_inter, u_t2,
            v_max, v_last, v_time, v_exchange, v_reset_phase,
            backup_mask, backup_raw, boosted_vals, tau1, tau2, one,
        )
        # Count effective resets once per (trial, agent) slot — the same
        # dedup strategy switch as the NumPy kernel.
        if reset_count:
            rows, cols = np.nonzero(reset_mask.reshape(trials, -1))
            slots = rows * n + initiators[rows, cols].astype(np.int64, copy=False)
            resets_flat = flat_state_view(arrays["resets"])
            if slots.size * 8 < resets_flat.size:
                np.add.at(resets_flat, np.unique(slots), 1)
            else:
                flags = np.zeros(resets_flat.size, dtype=bool)
                flags[slots] = True
                resets_flat += flags
