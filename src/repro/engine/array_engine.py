"""Exact sequential engine over struct-of-arrays state.

:class:`ArraySimulator` executes the *textbook* sequential scheduler — one
uniformly random ordered pair of distinct agents per interaction — but keeps
the population in the same struct-of-arrays representation the vectorised
engines use, instead of a Python list of state objects.  Protocols plug in
through :meth:`repro.engine.batch_engine.VectorizedProtocol.interact_one`,
the single-pair counterpart of ``interact_ensemble``.

Because ``interact_one`` implementations mirror their scalar protocol's
transition *including the order of random draws*, the array engine
reproduces the sequential :class:`repro.engine.simulator.Simulator`
trajectory bit-for-bit under a shared seed (``tests/test_engine_equivalence.
py`` asserts this for the dynamic size counting protocol and the toolbox
protocols), while avoiding per-agent Python object overhead: no dataclass
allocation, no population bookkeeping, and cheap whole-population snapshots
via ``output_array``.

Use this engine when exact interleaving matters but the population is too
large for the object-based simulator's memory habits — or as the middle
rung of the equivalence ladder between the reference engine and the
approximate batched engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.api import ArrayStateEngine, EngineSnapshot, RunResult

__all__ = ["ArrayRunResult", "ArraySimulator"]


@dataclass
class ArrayRunResult(RunResult):
    """Outcome of an exact array-engine run."""


class ArraySimulator(ArrayStateEngine):
    """Exact sequential simulator over struct-of-arrays state.

    Parameters
    ----------
    protocol:
        A :class:`repro.engine.batch_engine.VectorizedProtocol` that
        implements ``interact_one``.
    n:
        Initial population size.
    rng / seed:
        Random source (or a seed to build one).
    resize_schedule:
        Optional ``(parallel_time, target_size)`` adversary events applied
        at snapshot granularity, as on the batched engine.
    initial_arrays:
        Optional pre-built state arrays for non-default initial
        configurations.

    Notes
    -----
    The scheduling loop is interaction-for-interaction identical to
    :class:`repro.engine.simulator.Simulator`: each step draws
    ``rng.ordered_pair(n)`` and applies one transition.  Only the state
    container differs, so a protocol whose ``interact_one`` mirrors its
    scalar ``interact`` yields identical trajectories under a shared seed
    (as long as no adversary reorders agents).
    """

    name = "array"

    def _advance_one_parallel_step(self) -> None:
        """Execute ``n`` interactions (one parallel time unit), exactly."""
        n = self._require_interactable()
        protocol = self.protocol
        arrays = self.arrays
        rng = self.rng
        for _ in range(n):
            i, j = rng.ordered_pair(n)
            protocol.interact_one(arrays, i, j, rng)
        self.interactions_executed += n
        self.parallel_time += 1

    def step(self) -> None:
        """Execute a single pairwise interaction (inspection/debug helper)."""
        n = self._require_interactable()
        i, j = self.rng.ordered_pair(n)
        self.protocol.interact_one(self.arrays, i, j, self.rng)
        self.interactions_executed += 1

    def _build_result(
        self, snapshots: list[EngineSnapshot], stopped_early: bool
    ) -> ArrayRunResult:
        return ArrayRunResult(
            parallel_time=self.parallel_time,
            interactions=self.interactions_executed,
            final_size=self.size,
            stopped_early=stopped_early,
            snapshots=snapshots,
            metadata={"protocol": self.protocol.describe(), "engine": self.name},
        )
