"""Recorders — observers that extract time series from a running simulation.

The paper's simulator snapshots the configuration once every ``n``
interactions (one parallel time step) instead of after every interaction.
The engine follows the same design: a :class:`Recorder` receives a callback
at every snapshot with the current population, and may additionally receive
protocol events (such as clock ticks) as they happen.

Recorders never mutate the population.  Each recorder accumulates rows in
memory and exposes them as plain Python structures so that experiment code
and tests can post-process them without the engine in the loop.
"""

from __future__ import annotations

import abc
from typing import Any, Callable

from repro.engine.api import EngineSnapshot, quantiles
from repro.engine.population import Population
from repro.engine.protocol import Protocol, ProtocolEvent

__all__ = [
    "Recorder",
    "SnapshotStats",
    "quantiles",
    "EstimateRecorder",
    "PopulationSizeRecorder",
    "PhaseOccupancyRecorder",
    "EventRecorder",
    "MemoryRecorder",
    "CallbackRecorder",
]


class Recorder(abc.ABC):
    """Base class for simulation observers."""

    def on_start(self, population: Population, protocol: Protocol) -> None:
        """Called once before the first interaction."""

    @abc.abstractmethod
    def on_snapshot(
        self, parallel_time: int, population: Population, protocol: Protocol
    ) -> None:
        """Called at every snapshot, after the due resizes are applied."""

    def on_event(self, event: ProtocolEvent) -> None:
        """Called for every protocol event (clock ticks, resets, ...)."""

    def on_finish(self, population: Population, protocol: Protocol) -> None:
        """Called once after the last interaction."""


#: Min / median / max of a per-agent quantity at one parallel time step —
#: the shared :class:`repro.engine.api.EngineSnapshot` under its historical
#: recorder-layer name.
SnapshotStats = EngineSnapshot


class EstimateRecorder(Recorder):
    """Records min/median/max of the protocol output across agents per snapshot.

    For the dynamic size counting protocol the output is the agent's reported
    estimate of log n (``max{max, lastMax}`` without overestimation, exactly
    as in Section 5 of the paper), so this recorder produces the series shown
    in Figs. 2, 4, and 5.
    """

    def __init__(self, output_fn: Callable[[Any], float] | None = None) -> None:
        self._output_fn = output_fn
        self.rows: list[SnapshotStats] = []

    @property
    def uses_protocol_output(self) -> bool:
        """Whether rows report the protocol's own output (no custom ``output_fn``).

        When true, a row is interchangeable with the engine's own snapshot
        statistics, which lets the simulator reuse it instead of computing
        the same triple twice.
        """
        return self._output_fn is None

    def on_snapshot(self, parallel_time, population, protocol) -> None:
        fn = self._output_fn or protocol.output
        values = [float(fn(state)) for state in population.states()]
        if values:
            lo, med, hi = quantiles(values)
        else:
            # A momentarily empty population still gets a row: skipping it
            # would desynchronize this series from the engine's snapshot
            # timeline (rows and snapshots must stay 1:1).
            lo = med = hi = float("nan")
        self.rows.append(
            SnapshotStats(
                parallel_time=parallel_time,
                population_size=population.size,
                minimum=lo,
                median=med,
                maximum=hi,
            )
        )

    def series(self) -> dict[str, list[float]]:
        """Return the recorded series as plain column lists."""
        return {
            "parallel_time": [float(r.parallel_time) for r in self.rows],
            "population_size": [float(r.population_size) for r in self.rows],
            "minimum": [r.minimum for r in self.rows],
            "median": [r.median for r in self.rows],
            "maximum": [r.maximum for r in self.rows],
        }


class PopulationSizeRecorder(Recorder):
    """Records the population size per snapshot (useful under adversaries)."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, int]] = []

    def on_snapshot(self, parallel_time, population, protocol) -> None:
        self.rows.append((parallel_time, population.size))

    def sizes(self) -> list[int]:
        return [size for _, size in self.rows]


class PhaseOccupancyRecorder(Recorder):
    """Records how many agents are in each clock phase per snapshot.

    The phase classifier is supplied by the caller (for the dynamic size
    counting protocol it is :func:`repro.core.state.classify_phase`), keeping
    the engine independent of the core package.
    """

    def __init__(self, phase_fn: Callable[[Any], str]) -> None:
        self._phase_fn = phase_fn
        self.rows: list[dict[str, Any]] = []

    def on_snapshot(self, parallel_time, population, protocol) -> None:
        counts: dict[str, int] = {}
        for state in population.states():
            phase = self._phase_fn(state)
            counts[phase] = counts.get(phase, 0) + 1
        row: dict[str, Any] = {"parallel_time": parallel_time, "population_size": population.size}
        row.update(counts)
        self.rows.append(row)


class EventRecorder(Recorder):
    """Collects protocol events, optionally filtered by kind.

    Clock ticks (reset events) of the phase clock are gathered with
    ``EventRecorder(kinds={"reset"})`` and post-processed by
    :mod:`repro.analysis.synchronization` into burst/overlap intervals.
    """

    def __init__(self, kinds: set[str] | None = None) -> None:
        self._kinds = kinds
        self.events: list[ProtocolEvent] = []

    def on_snapshot(self, parallel_time, population, protocol) -> None:
        return None

    def on_event(self, event: ProtocolEvent) -> None:
        if self._kinds is None or event.kind in self._kinds:
            self.events.append(event)

    def events_of_kind(self, kind: str) -> list[ProtocolEvent]:
        return [e for e in self.events if e.kind == kind]


class MemoryRecorder(Recorder):
    """Records the maximum and mean per-agent memory footprint in bits.

    Uses :meth:`repro.engine.protocol.Protocol.memory_bits`, which each
    protocol implements for its own state representation.  This backs the
    space-complexity comparison against the Doty–Eftekhari baseline.
    """

    def __init__(self) -> None:
        self.rows: list[dict[str, float]] = []

    def on_snapshot(self, parallel_time, population, protocol) -> None:
        bits = [protocol.memory_bits(state) for state in population.states()]
        nan = float("nan")
        # NaN statistics (not a skipped row) when the population is
        # momentarily empty, keeping the series dense on the snapshot
        # timeline.
        self.rows.append(
            {
                "parallel_time": float(parallel_time),
                "population_size": float(population.size),
                "max_bits": float(max(bits)) if bits else nan,
                "mean_bits": float(sum(bits) / len(bits)) if bits else nan,
            }
        )

    def peak_bits(self) -> float:
        """Largest per-agent footprint observed over the whole run."""
        peaks = [
            row["max_bits"] for row in self.rows if row["max_bits"] == row["max_bits"]
        ]
        return max(peaks) if peaks else 0.0


class CallbackRecorder(Recorder):
    """Adapter turning a plain callable into a recorder (used in tests)."""

    def __init__(self, on_snapshot: Callable[[int, Population, Protocol], None]) -> None:
        self._callback = on_snapshot

    def on_snapshot(self, parallel_time, population, protocol) -> None:
        self._callback(parallel_time, population, protocol)
