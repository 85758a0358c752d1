"""Exact sequential simulator for population protocols.

This is the semantic reference engine of the reproduction: it executes the
textbook population protocol scheduler — in each step an ordered pair of
distinct agents is chosen uniformly at random and the protocol's transition
function is applied — with no batching or approximation.

Configuration snapshots are taken once per *parallel time* step (``n``
interactions for the current population size ``n``) by default, exactly as
in the paper's C++ simulator, which reports a snapshot every ``n``
interactions "to ensure quick simulation times".  The resize schedule is
applied at each snapshot, as on every engine: an event fires just before
the first snapshot at or after its time.

It is the package's one exact engine.  For figure-scale populations
(n >= 10^5) use :class:`repro.engine.ensemble_engine.EnsembleSimulator`
(the ``"batched"`` and ``"ensemble"`` engines), which trades exactness of
the interleaving for vectorised speed, or
:class:`repro.engine.counts_engine.CountsSimulator` (the ``"counts"``
engine), whose per-step cost is independent of ``n``.  All engines
implement the shared :class:`repro.engine.api.Engine` contract and return
:class:`repro.engine.api.RunResult`-compatible results.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.engine.api import Engine, EngineSnapshot, RunResult, quantiles
from repro.engine.errors import (
    ConfigurationError,
    EmptyPopulationError,
    ProtocolContractError,
)
from repro.engine.population import Population
from repro.engine.protocol import InteractionContext, Protocol, ProtocolEvent
from repro.engine.recorder import EstimateRecorder, Recorder
from repro.engine.rng import RandomSource

# Module-level alias: _state_payload's keyword-only ``copy`` flag shadows
# the module name inside that method.
_deepcopy = copy.deepcopy

__all__ = ["SimulationResult", "Simulator"]


@dataclass
class SimulationResult(RunResult):
    """Summary of one sequential simulation run.

    A :class:`repro.engine.api.RunResult` under its historical name; kept as
    a distinct type so that call sites can continue to spell out which
    engine produced the result.
    """


class Simulator(Engine):
    """Exact sequential population protocol simulator.

    Parameters
    ----------
    protocol:
        The protocol to execute.
    population:
        Either an integer (that many agents are created in the protocol's
        initial state) or a pre-built :class:`Population` for arbitrary
        initial configurations (needed for loose-stabilization experiments
        that start from adversarial configurations).
    rng:
        Random source; a fresh one is created from ``seed`` if omitted.
    seed:
        Convenience seed used when ``rng`` is not given.
    resize_schedule:
        ``(parallel_time, target_size)`` pairs, validated and applied by
        :class:`~repro.engine.api.Engine` through :meth:`resize_to`.
    recorders:
        Observers notified at every snapshot and for protocol events.
    snapshot_stats:
        Whether to compute the per-snapshot output statistics that populate
        ``RunResult.snapshots`` (the unified engine API).  Costs one pass
        over all agent outputs per snapshot; callers that only consume
        recorders can turn it off.
    """

    name = "sequential"

    def __init__(
        self,
        protocol: Protocol,
        population: int | Population,
        *,
        rng: RandomSource | None = None,
        seed: int | None = None,
        resize_schedule: Iterable[tuple[int, int]] = (),
        recorders: Iterable[Recorder] = (),
        snapshot_stats: bool = True,
    ) -> None:
        super().__init__(resize_schedule)
        self.protocol = protocol
        self.rng = rng if rng is not None else RandomSource.from_seed(seed)
        if isinstance(population, Population):
            self.population = population
        elif isinstance(population, int):
            if population < 2:
                raise ConfigurationError(
                    f"population size must be at least 2, got {population}"
                )
            self.population = Population(
                self.protocol.initial_state(self.rng) for _ in range(population)
            )
        else:  # pragma: no cover - defensive
            raise ConfigurationError(
                f"population must be an int or Population, got {type(population).__name__}"
            )
        self.recorders: list[Recorder] = list(recorders)
        self._context = InteractionContext(self.rng, sink=self._dispatch_event)
        self._outputs_numeric = bool(snapshot_stats)

    # ----------------------------------------------------------------- events

    def _dispatch_event(self, event: ProtocolEvent) -> None:
        for recorder in self.recorders:
            recorder.on_event(event)

    # --------------------------------------------------------- run-loop hooks

    def _on_run_start(self) -> None:
        for recorder in self.recorders:
            recorder.on_start(self.population, self.protocol)

    def _on_run_finish(self) -> None:
        for recorder in self.recorders:
            recorder.on_finish(self.population, self.protocol)

    def _advance_one_parallel_step(self) -> None:
        """Execute ``n`` interactions (one parallel time unit)."""
        population = self.population
        if not population.is_interactable():
            raise EmptyPopulationError(
                "population has fewer than two agents; cannot schedule interactions"
            )
        n = population.size
        for _ in range(n):
            self.step()
        self.parallel_time += 1

    def step(self) -> None:
        """Execute a single pairwise interaction."""
        population = self.population
        n = population.size
        if n < 2:
            raise EmptyPopulationError(
                "population has fewer than two agents; cannot schedule interactions"
            )
        i, j = self.rng.ordered_pair(n)
        ctx = self._context
        ctx.reset(
            interaction=self.interactions_executed,
            initiator_id=population.stable_id(i),
            responder_id=population.stable_id(j),
        )
        result = self.protocol.interact(population.state(i), population.state(j), ctx)
        try:
            new_u, new_v = result
        except (TypeError, ValueError) as exc:
            raise ProtocolContractError(
                f"{type(self.protocol).__name__}.interact must return a pair of "
                f"states, got {result!r}"
            ) from exc
        population.set_state(i, new_u)
        population.set_state(j, new_v)
        self.interactions_executed += 1

    def resize_to(self, target: int) -> None:
        """Resize the population to ``target`` agents.

        Shrinking removes uniformly random agents one at a time
        (:meth:`Population.downsize_to`); growing adds agents in the
        protocol's initial state, drawn one after another.
        """
        if target < 2:
            raise ConfigurationError(f"resize target must be at least 2, got {target}")
        population = self.population
        if target < population.size:
            population.downsize_to(target, self.rng)
        for _ in range(target - population.size):
            population.add(self.protocol.initial_state(self.rng))

    def _take_snapshot(self) -> EngineSnapshot:
        for recorder in self.recorders:
            recorder.on_snapshot(self.parallel_time, self.population, self.protocol)
        # A default EstimateRecorder already computed exactly this triple —
        # its row type *is* EngineSnapshot, so reuse it instead of making a
        # second pass over all agent outputs.
        for recorder in self.recorders:
            if (
                isinstance(recorder, EstimateRecorder)
                and recorder.uses_protocol_output
                and recorder.rows
                and recorder.rows[-1].parallel_time == self.parallel_time
            ):
                return recorder.rows[-1]
        return self._numeric_snapshot()

    def _numeric_snapshot(self) -> EngineSnapshot:
        """Min/median/max of the numeric outputs (``nan`` if non-numeric).

        Protocols with non-numeric outputs (e.g. the three-state majority's
        ``"A"``/``"B"``/``"U"``) disable the statistics after the first
        failed conversion, keeping the snapshot timeline intact.
        """
        nan = float("nan")
        minimum = median = maximum = nan
        if self._outputs_numeric:
            try:
                values = [
                    float(self.protocol.output(state))
                    for state in self.population.states()
                ]
            except (TypeError, ValueError):
                self._outputs_numeric = False
            else:
                if values:
                    minimum, median, maximum = quantiles(values)
        return EngineSnapshot(
            parallel_time=self.parallel_time,
            population_size=self.population.size,
            minimum=minimum,
            median=median,
            maximum=maximum,
        )

    def _build_result(
        self, snapshots: list[EngineSnapshot], stopped_early: bool
    ) -> SimulationResult:
        return SimulationResult(
            parallel_time=self.parallel_time,
            interactions=self.interactions_executed,
            final_size=self.population.size,
            stopped_early=stopped_early,
            snapshots=snapshots,
            metadata={"protocol": self.protocol.describe(), "engine": self.name},
        )

    # ------------------------------------------------------------ checkpoints

    def _state_payload(self, *, copy: bool = True) -> dict[str, Any]:
        # States may be mutable objects the protocol updates in place — a
        # deep copy decouples the payload from the live run (skipped when
        # the caller serializes the payload before the run advances).
        states = list(self.population.states())
        return {
            "states": _deepcopy(states) if copy else states,
            "stable_ids": list(self.population.stable_ids()),
            "next_id": self.population._next_id,
            "outputs_numeric": self._outputs_numeric,
        }

    def _restore_payload(self, state: dict[str, Any]) -> None:
        self.population = Population.restore(
            copy.deepcopy(state["states"]), state["stable_ids"], state["next_id"]
        )
        self._outputs_numeric = bool(state["outputs_numeric"])

    # ------------------------------------------------------------- inspection

    @property
    def size(self) -> int:
        """Current population size."""
        return self.population.size

    def outputs(self) -> list[Any]:
        """Current protocol outputs of all agents."""
        return [self.protocol.output(state) for state in self.population.states()]

    def states(self) -> Sequence[Any]:
        """Current states of all agents (read-only view)."""
        return self.population.states()
