"""Counts-level kernel for the dynamic size counting protocol.

:class:`DynamicCountingCountsKernel` re-expresses Algorithm 2 on the
multiset population state of :class:`repro.engine.counts_engine.
CountsSimulator`: instead of per-agent ``(max, lastMax, time, interactions)``
planes, the population is a count vector over the *occupied* points of that
integer lattice, and one transition call advances every (initiator-state,
responder-class) interaction cell at once.

The randomness of Algorithm 2 lives entirely in its GRVs, which makes the
count-level reformulation exact: whether an interaction resets (lines 2-6)
or owes a backup draw (lines 7-10) is a *deterministic* function of the two
endpoint states, and the two conditions are mutually exclusive (a reset
zeroes the interaction counter, so a freshly reset agent can never be over
the backup threshold).  Each cell therefore splits into

* deterministic cells — lines 11-15 applied directly;
* reset cells — one multinomial over the closed-form pmf of
  ``max of k Geom(1/2)`` (:func:`repro.engine.counts_engine.grv_max_pmf`)
  replaces the per-agent GRV draws, expanding the cell into one sub-cell
  per drawn value;
* backup cells — the same pmf expansion, with the drawn value adopted only
  where it beats the agent's current maximum (the raw, un-overestimated
  comparison of line 9).

Responders are coarsened to their ``(max, lastMax, time)`` triple — the
transition never reads the responder's interaction counter — which keeps
the pair table at |Q| x |R| with |R| ~ 10 once the protocol converges.

The lattice is packed into one int64 key per state.  That requires
*integer* protocol constants and bounds every plane by the largest GRV the
samplers resolve (``overestimation * 64``); the paper's empirical presets
fit in ~34 bits, while the theory presets (tau1 ~ 10^6) overflow the key
and are rejected with a :class:`~repro.engine.errors.ConfigurationError` —
exactly the signal :func:`repro.engine.registry.has_counts_kernel` uses to
keep auto-selection away from unpackable parameterisations.

Per-agent cumulative reset counters (the ``resets`` plane) cannot live in
count state without exploding the lattice; the kernel instead tracks the
population-wide total (:meth:`DynamicCountingCountsKernel.tick_total`),
which is what the clock-rate analyses aggregate anyway.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.params import ProtocolParameters, empirical_parameters
from repro.engine.counts_engine import (
    GRV_VALUE_CAP,
    CountsState,
    PackedCountsKernel,
    grv_max_pmf,
)
from repro.engine.errors import ConfigurationError
from repro.engine.rng import RandomSource

__all__ = ["DynamicCountingCountsKernel"]


def _integral(value: float, name: str) -> int:
    if float(value) != int(value):
        raise ConfigurationError(
            f"counts kernel requires integer protocol constants; {name}={value!r}"
        )
    return int(value)


class DynamicCountingCountsKernel(PackedCountsKernel):
    """Algorithm 2 on interaction-count cells (see module docstring)."""

    name = "counts-dynamic-size-counting"
    responder_fields = ("max", "last_max", "time")

    def __init__(self, params: ProtocolParameters | None = None) -> None:
        self.params = params if params is not None else empirical_parameters()
        p = self.params
        tau1 = _integral(p.tau1, "tau1")
        tau_prime = _integral(p.tau_prime, "tau_prime")
        _integral(p.tau2, "tau2")
        _integral(p.tau3, "tau3")
        over = _integral(p.overestimation, "overestimation")
        if over < 1:
            raise ConfigurationError(f"overestimation must be >= 1, got {over}")
        # Largest storable maximum: an overestimated cap-value GRV.  ``time``
        # tops out at tau1 * value_cap (resets/adoptions assign tau1 * max
        # and line 15 only decrements); ``interactions`` is zeroed by the
        # backup rule once it passes tau_prime * value_cap, so the +1 of
        # line 15 caps it one above that.
        value_cap = over * GRV_VALUE_CAP
        self.fields = (
            ("max", value_cap + 1),
            ("last_max", value_cap + 1),
            ("time", tau1 * value_cap + 1),
            ("interactions", tau_prime * value_cap + 2),
        )
        self._check_packing()
        # GRV outcomes in descending-probability order, so each row of the
        # expansion multinomial stops after its few likely values.
        pmf = grv_max_pmf(int(p.grv_samples))
        order = np.argsort(-pmf, kind="stable")
        self._grv_pmf = pmf[order]
        self._grv_values = np.arange(1, GRV_VALUE_CAP + 1, dtype=np.int64)[order]
        self._total_ticks = 0

    # ------------------------------------------------------------------ setup

    def initial_state(self, n: int, rng: RandomSource) -> CountsState:
        """All ``n`` agents fresh: ``max = lastMax = 1``, ``time = tau1``."""
        tau1 = int(self.params.tau1)
        columns = {
            "max": np.array([1], dtype=np.int64),
            "last_max": np.array([1], dtype=np.int64),
            "time": np.array([tau1], dtype=np.int64),
            "interactions": np.array([0], dtype=np.int64),
        }
        return self.state_from_columns(columns, np.array([n], dtype=np.int64))

    # ----------------------------------------------------------------- output

    def output_values(self, state: CountsState) -> np.ndarray:
        """Per-state reported estimate of ``log2 n`` (Section 5 convention)."""
        scale = np.maximum(state.columns["max"], state.columns["last_max"])
        return scale / self.params.overestimation

    def responder_view(
        self, state: CountsState
    ) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
        """Coarsen responders to ``(max, lastMax, time)`` equivalence classes."""
        time_cardinality = self.fields[2][1]
        value_cardinality = self.fields[0][1]
        reduced = (
            state.columns["max"] * value_cardinality + state.columns["last_max"]
        ) * time_cardinality + state.columns["time"]
        _, representative, class_id = np.unique(
            reduced, return_index=True, return_inverse=True
        )
        columns = {
            name: state.columns[name][representative] for name in self.responder_fields
        }
        return class_id, columns

    def tick_total(self) -> int | None:
        return self._total_ticks

    def restore_tick_total(self, total: int | None) -> None:
        if total is not None:
            self._total_ticks = int(total)

    # ------------------------------------------------------------- transition

    def transition(
        self,
        u: dict[str, np.ndarray],
        v: dict[str, np.ndarray],
        multiplicity: np.ndarray,
        rng: RandomSource,
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        p = self.params
        tau2, tau3 = int(p.tau2), int(p.tau3)
        u_max, u_last = u["max"], u["last_max"]
        u_time, u_inter = u["time"], u["interactions"]

        # Lines 2-6 condition: deterministic per cell.
        u_scale = np.maximum(u_max, u_last)
        u_exchange = u_time >= tau2 * u_scale
        u_reset_phase = u_time < tau3 * u_scale
        v_scale = np.maximum(v["max"], v["last_max"])
        v_exchange = v["time"] >= tau2 * v_scale
        reset = (
            (u_time <= 0)
            | (u_reset_phase & v_exchange)
            | (~u_exchange & (u_max != v["max"]))
        )
        # Lines 7-10 condition: on non-reset cells the pre-backup state is the
        # input state; reset cells zero the counter, so the two are disjoint.
        backup = ~reset & (u_inter > int(p.tau_prime) * u_scale)
        plain = ~reset & ~backup

        out_fields: list[dict[str, np.ndarray]] = []
        out_mult: list[np.ndarray] = []

        if plain.any():
            idx = np.flatnonzero(plain)
            out_fields.append(
                self._finish(
                    u_max[idx],
                    u_last[idx],
                    u_time[idx],
                    u_inter[idx],
                    {name: col[idx] for name, col in v.items()},
                )
            )
            out_mult.append(multiplicity[idx])

        if reset.any():
            idx = np.flatnonzero(reset)
            cell, grv, counts = self._expand_grv(multiplicity[idx], rng)
            self._total_ticks += int(multiplicity[idx].sum())
            base = idx[cell]
            fresh = int(p.overestimation) * grv
            new_time = int(p.tau1) * np.maximum(u_max[base], fresh)
            out_fields.append(
                self._finish(
                    fresh,
                    u_max[base],
                    new_time,
                    np.zeros(base.size, dtype=np.int64),
                    {name: col[base] for name, col in v.items()},
                )
            )
            out_mult.append(counts)

        if backup.any():
            idx = np.flatnonzero(backup)
            cell, grv, counts = self._expand_grv(multiplicity[idx], rng)
            base = idx[cell]
            adopt = grv > u_max[base]  # line 9 compares the *raw* draw
            boosted = int(p.overestimation) * grv
            new_max = np.where(adopt, boosted, u_max[base])
            new_time = np.where(adopt, int(p.tau1) * boosted, u_time[base])
            out_fields.append(
                self._finish(
                    new_max,
                    u_last[base],
                    new_time,
                    np.zeros(base.size, dtype=np.int64),
                    {name: col[base] for name, col in v.items()},
                )
            )
            out_mult.append(counts)

        merged = {
            name: np.concatenate([fields[name] for fields in out_fields])
            for name in ("max", "last_max", "time", "interactions")
        }
        return merged, np.concatenate(out_mult)

    def _expand_grv(
        self, multiplicity: np.ndarray, rng: RandomSource
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split each cell's multiplicity across GRV outcomes.

        One vectorised multinomial per call, over the GRV values in
        descending-probability order; returns parallel arrays
        ``(cell_index, grv_value, count)`` over the non-empty sub-cells.
        """
        table = rng.generator.multinomial(multiplicity, self._grv_pmf)
        sub_cells = np.flatnonzero(table)
        cell, bin_index = np.divmod(sub_cells, table.shape[1])
        return cell, self._grv_values[bin_index], table.ravel()[sub_cells]

    def _finish(
        self,
        new_max: np.ndarray,
        new_last: np.ndarray,
        new_time: np.ndarray,
        new_inter: np.ndarray,
        v: Mapping[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """Algorithm 2 lines 11-15 (deterministic) on expanded sub-cells."""
        p = self.params
        tau1, tau2, tau3 = int(p.tau1), int(p.tau2), int(p.tau3)
        v_max, v_last, v_time = v["max"], v["last_max"], v["time"]
        v_scale = np.maximum(v_max, v_last)
        v_exchange = v_time >= tau2 * v_scale
        v_reset_phase = v_time < tau3 * v_scale

        # Lines 11-12: adopt a larger maximum within the exchange phase.
        exchange_now = new_time >= tau2 * np.maximum(new_max, new_last)
        adopt = exchange_now & v_exchange & (new_max < v_max)
        new_time = np.where(adopt, tau1 * v_max, new_time)
        new_max = np.where(adopt, v_max, new_max)
        new_last = np.where(adopt, v_last, new_last)

        # Lines 13-14: exchange the trailing maximum.
        exchange_final = new_time >= tau2 * np.maximum(new_max, new_last)
        share = (new_max == v_max) & ~(exchange_final & v_reset_phase)
        new_last = np.where(share, np.maximum(new_last, v_last), new_last)

        # Line 15: CHVP countdown plus the interaction counter.
        new_time = np.maximum(new_time, v_time) - 1
        return {
            "max": new_max.astype(np.int64),
            "last_max": new_last.astype(np.int64),
            "time": new_time.astype(np.int64),
            "interactions": (new_inter + 1).astype(np.int64),
        }

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "class": type(self).__name__,
            "params": self.params.describe(),
        }
