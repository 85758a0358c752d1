"""Vectorised (struct-of-arrays) counterparts of the toolbox protocols.

Each class here implements :class:`repro.engine.batch_engine.
VectorizedProtocol` for one of the scalar protocols in this package, so
that epidemics, junta election and majority can run at figure scale on the
``"batched"`` / ``"ensemble"`` engines (:class:`repro.engine.
ensemble_engine.EnsembleSimulator`); the exact single-pair transition is
the scalar protocol's ``interact`` on the sequential engine.

The ``interact_ensemble`` implementations apply the transition to a block
of ``(rows, n)`` stacked state with ``(rows, batch)`` index matrices,
following the synchronous-rounds semantics (responder states read at the
start of the batch, overlapping writes resolved last-writer-wins, monotone
variables merged with ``np.maximum.at``).  The engine owns the stacked
layout: it passes flat views of the planes and ``np.intp`` flat coordinates
(:func:`repro.engine.ensemble_engine.flat_pair_indices`, built once per
step), which visit the lanes in the same row-major order as broadcast 2-D
indexing, so the kernels only gather and scatter.

The mapping from scalar protocol classes to these implementations lives in
:mod:`repro.engine.registry`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engine.batch_engine import VectorizedProtocol
from repro.engine.rng import RandomSource
from repro.protocols.majority import ApproximateMajority

__all__ = [
    "VectorizedMaxEpidemic",
    "VectorizedInfectionEpidemic",
    "VectorizedJuntaElection",
    "VectorizedApproximateMajority",
]


class VectorizedMaxEpidemic(VectorizedProtocol):
    """Struct-of-arrays max-propagation epidemic.

    State arrays: ``value`` (float64) — the value being spread.  Mirrors
    :class:`repro.protocols.epidemic.MaxEpidemic`.
    """

    name = "vectorized-max-epidemic"

    def __init__(self, initial_value: int = 0, one_way: bool = True) -> None:
        self.initial_value = int(initial_value)
        self.one_way = bool(one_way)

    def initial_arrays(self, n: int, rng: RandomSource) -> dict[str, np.ndarray]:
        return {"value": np.full(n, self.initial_value, dtype=np.float64)}

    def seeded_arrays(self, n: int, peak: float, count: int = 1) -> dict[str, np.ndarray]:
        """Arrays with the first ``count`` agents holding ``peak`` (spread source)."""
        if not 0 < count <= n:
            raise ValueError(f"count must be in [1, {n}], got {count}")
        value = np.full(n, self.initial_value, dtype=np.float64)
        value[:count] = peak
        return {"value": value}

    def interact_ensemble(self, arrays, initiators, responders, rng) -> None:
        value = arrays["value"]
        u, v = initiators.ravel(), responders.ravel()
        peak = np.maximum(value[u], value[v])
        np.maximum.at(value, u, peak)
        if not self.one_way:
            np.maximum.at(value, v, peak)

    def output_array(self, arrays) -> np.ndarray:
        return arrays["value"]

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "class": type(self).__name__,
            "initial_value": self.initial_value,
            "one_way": self.one_way,
        }


class VectorizedInfectionEpidemic(VectorizedProtocol):
    """Struct-of-arrays binary SI epidemic.

    State arrays: ``infected`` (int8, 0 = susceptible, 1 = infected).
    Mirrors :class:`repro.protocols.epidemic.InfectionEpidemic`.
    """

    name = "vectorized-infection-epidemic"

    def __init__(self, one_way: bool = False) -> None:
        self.one_way = bool(one_way)

    def initial_arrays(self, n: int, rng: RandomSource) -> dict[str, np.ndarray]:
        return {"infected": np.zeros(n, dtype=np.int8)}

    def seeded_arrays(self, n: int, infected: int = 1) -> dict[str, np.ndarray]:
        """Arrays with the first ``infected`` agents infected."""
        if not 0 < infected <= n:
            raise ValueError(f"infected must be in [1, {n}], got {infected}")
        arr = np.zeros(n, dtype=np.int8)
        arr[:infected] = 1
        return {"infected": arr}

    def interact_ensemble(self, arrays, initiators, responders, rng) -> None:
        infected = arrays["infected"]
        u, v = initiators.ravel(), responders.ravel()
        v_inf = infected[v]
        if self.one_way:
            np.maximum.at(infected, u, v_inf)
        else:
            both = np.maximum(infected[u], v_inf)
            np.maximum.at(infected, u, both)
            np.maximum.at(infected, v, both)

    def output_array(self, arrays) -> np.ndarray:
        return arrays["infected"]

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "class": type(self).__name__, "one_way": self.one_way}


class VectorizedJuntaElection(VectorizedProtocol):
    """Struct-of-arrays coin-level junta election.

    State arrays
    ------------
    ``level``     int64 — coin-climbing level.
    ``climbing``  int8  — whether the agent is still flipping coins.
    ``max_seen``  int64 — largest level observed anywhere (epidemic value).

    Mirrors :class:`repro.protocols.junta.JuntaElection`: output 1 means the
    agent currently believes it belongs to the junta.
    """

    name = "vectorized-junta-election"

    def __init__(self, max_level: int = 60) -> None:
        if max_level < 1:
            raise ValueError(f"max_level must be positive, got {max_level}")
        self.max_level = int(max_level)

    def initial_arrays(self, n: int, rng: RandomSource) -> dict[str, np.ndarray]:
        return {
            "level": np.zeros(n, dtype=np.int64),
            "climbing": np.ones(n, dtype=np.int8),
            "max_seen": np.zeros(n, dtype=np.int64),
        }

    def interact_ensemble(self, arrays, initiators, responders, rng) -> None:
        level = arrays["level"]
        climbing = arrays["climbing"]
        max_seen = arrays["max_seen"]
        u, v = initiators.ravel(), responders.ravel()

        u_level = level[u]
        u_climb = climbing[u].astype(bool)
        v_level = level[v]
        v_seen = max_seen[v]
        u_seen = max_seen[u]

        coins = np.zeros(u.shape, dtype=bool)
        climbing_lanes = np.flatnonzero(u_climb)
        if climbing_lanes.size:
            coins[climbing_lanes] = rng.coin_lanes(climbing_lanes, initiators.shape[1])
        up = u_climb & coins & (u_level < self.max_level)
        new_level = np.where(up, u_level + 1, u_level)
        # An agent keeps climbing only while every flip is heads below the cap.
        level[u] = new_level
        climbing[u] = up.astype(np.int8)

        top = np.maximum(np.maximum(new_level, u_seen), np.maximum(v_level, v_seen))
        np.maximum.at(max_seen, u, top)
        np.maximum.at(max_seen, v, top)

    def output_array(self, arrays) -> np.ndarray:
        member = (arrays["climbing"] == 0) & (arrays["level"] >= arrays["max_seen"])
        return member.astype(np.float64)

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "class": type(self).__name__, "max_level": self.max_level}


class VectorizedApproximateMajority(VectorizedProtocol):
    """Struct-of-arrays three-state approximate majority.

    State arrays: ``opinion`` (int8) with the encoding ``+1`` = A, ``-1`` =
    B, ``0`` = undecided.  Mirrors :class:`repro.protocols.majority.
    ApproximateMajority`; the numeric encoding doubles as the output, so
    snapshot medians report which opinion is winning.
    """

    name = "vectorized-approximate-majority"

    #: Scalar state string -> numeric opinion code.
    CODES = {ApproximateMajority.A: 1, ApproximateMajority.B: -1, ApproximateMajority.UNDECIDED: 0}

    def __init__(self, initial_opinion: str = "U") -> None:
        if initial_opinion not in self.CODES:
            raise ValueError(f"invalid initial opinion {initial_opinion!r}")
        self.initial_opinion = initial_opinion

    def initial_arrays(self, n: int, rng: RandomSource) -> dict[str, np.ndarray]:
        code = self.CODES[self.initial_opinion]
        return {"opinion": np.full(n, code, dtype=np.int8)}

    def arrays_from_counts(self, a: int, b: int, undecided: int = 0) -> dict[str, np.ndarray]:
        """Arrays for an initial configuration with the given opinion counts."""
        if min(a, b, undecided) < 0 or a + b + undecided < 2:
            raise ValueError(
                "opinion counts must be non-negative and sum to >= 2, "
                f"got a={a}, b={b}, undecided={undecided}"
            )
        opinion = np.concatenate(
            [
                np.full(a, 1, dtype=np.int8),
                np.full(b, -1, dtype=np.int8),
                np.zeros(undecided, dtype=np.int8),
            ]
        )
        return {"opinion": opinion}

    def interact_ensemble(self, arrays, initiators, responders, rng) -> None:
        opinion = arrays["opinion"]
        u, v = initiators.ravel(), responders.ravel()
        u_op = opinion[u]
        v_op = opinion[v]
        recruit_u = (u_op == 0) & (v_op != 0)
        recruit_v = (v_op == 0) & (u_op != 0)
        cancel = (u_op != 0) & (v_op != 0) & (u_op == -v_op)
        new_u = np.where(recruit_u, v_op, u_op)
        new_v = np.where(recruit_v, u_op, np.where(cancel, 0, v_op))
        opinion[u] = new_u
        opinion[v] = new_v

    def output_array(self, arrays) -> np.ndarray:
        return arrays["opinion"]

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "class": type(self).__name__,
            "initial_opinion": self.initial_opinion,
        }
