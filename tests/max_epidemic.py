"""A one-way max-epidemic written in the tests, to drive the engine extension points.

Only dynamic size counting ships vectorised and counts kernels.  These two
classes give the registries, the stacked engine's default
``interact_step``, its flat layout, ``RowStreams`` and the counts engine a
second implementor: both spread the largest ``value`` with the one-way rule
``u' = max(u, v)`` of :class:`repro.protocols.epidemic.MaxEpidemic`.  The
``max_epidemic_kernels`` fixture (``conftest.py``) registers them for that
scalar protocol.
"""

from __future__ import annotations

import numpy as np

from repro.engine.batch_engine import VectorizedProtocol
from repro.engine.counts_engine import PackedCountsKernel


class VectorizedMaxEpidemic(VectorizedProtocol):
    """Minimal vectorised protocol used to test the engine in isolation."""

    name = "vectorized-max-epidemic"

    def initial_arrays(self, n, rng):
        return {"value": np.zeros(n, dtype=np.float64)}

    def interact_ensemble(self, arrays, initiators, responders, rng):
        value = arrays["value"]
        value[initiators] = np.maximum(value[initiators], value[responders])

    def output_array(self, arrays):
        return arrays["value"]


class MaxEpidemicCountsKernel(PackedCountsKernel):
    """The same rule on count vectors: one integer ``value`` field below 64."""

    name = "counts-max-epidemic"
    fields = (("value", 64),)

    def initial_state(self, n, rng):
        return self.state_from_columns(
            {"value": np.zeros(1, dtype=np.int64)}, np.array([n], dtype=np.int64)
        )

    def output_values(self, state):
        return state.columns["value"].astype(np.float64)

    def transition(self, u, v, multiplicity, rng):
        return {"value": np.maximum(u["value"], v["value"])}, multiplicity
