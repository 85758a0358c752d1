"""Multi-phase scenarios: named schedule segments chained on one timeline.

A :class:`Phase` is a named segment of a run — "steady", "outage",
"recovery" — with its own duration, an optional population size to jump to
when the phase begins, and its own (phase-relative) resize events.
:func:`chain_phases` concatenates phases into one plain ``(time, size)``
schedule, and :func:`phase_boundaries` reports where each phase starts and
stops on the global timeline — the scenario runner stamps those boundaries into
``ExperimentResult.metadata["phases"]`` and the
:func:`~repro.scenarios.metrics.phase_stats` extractor splits the tracking
metrics by phase, so tables and figures can answer "how did the protocol
behave *during the outage* vs *after recovery*" directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine.errors import InvalidScheduleError

__all__ = ["Phase", "chain_phases", "phase_boundaries"]


@dataclass(frozen=True)
class Phase:
    """One named segment of a multi-phase scenario.

    Attributes
    ----------
    name:
        Label for the segment (used in metrics columns and metadata).
    duration:
        Length of the segment in parallel time.
    start_size:
        Population size to resize to when the phase begins; ``None`` keeps
        whatever size the previous phase left (the first phase always
        starts from the run's ``n`` — a ``start_size`` there would resize
        at time zero, which no engine accepts, so it is rejected by
        :func:`chain_phases`).
    schedule:
        Phase-relative ``(time, size)`` events with times in
        ``[1, duration)``; they are shifted onto the global timeline by
        :func:`chain_phases`.
    """

    name: str
    duration: int
    start_size: int | None = None
    schedule: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidScheduleError("phase name must be non-empty")
        if self.duration < 1:
            raise InvalidScheduleError(
                f"phase {self.name!r}: duration must be at least 1, got {self.duration}"
            )
        if self.start_size is not None and self.start_size < 2:
            raise InvalidScheduleError(
                f"phase {self.name!r}: start_size must be at least 2, "
                f"got {self.start_size}"
            )
        normalized = tuple((int(t), int(s)) for t, s in self.schedule)
        object.__setattr__(self, "schedule", normalized)
        previous = 0
        for time, size in normalized:
            if not 1 <= time < self.duration:
                raise InvalidScheduleError(
                    f"phase {self.name!r}: event time {time} outside "
                    f"[1, {self.duration})"
                )
            if time <= previous:
                raise InvalidScheduleError(
                    f"phase {self.name!r}: event times must be strictly "
                    f"increasing, got {time} after {previous}"
                )
            if size < 2:
                raise InvalidScheduleError(
                    f"phase {self.name!r}: event size {size} is below the "
                    "engine minimum of 2"
                )
            previous = time


def chain_phases(phases: Sequence[Phase]) -> tuple[tuple[int, int], ...]:
    """Concatenate phases into one global schedule of ``(time, size)`` pairs.

    Each phase's relative events are shifted by the sum of the preceding
    durations; a phase's ``start_size`` becomes a resize event at the
    instant the phase begins.  The total duration is the natural horizon
    for the run (``sum(p.duration for p in phases)``).
    """
    if not phases:
        raise InvalidScheduleError("a multi-phase scenario needs at least one phase")
    if phases[0].start_size is not None:
        raise InvalidScheduleError(
            f"first phase {phases[0].name!r} must not set start_size: the "
            "run's initial population already defines it (no engine can "
            "resize at time zero)"
        )
    events: list[tuple[int, int]] = []
    offset = 0
    for phase in phases:
        if phase.start_size is not None:
            events.append((offset, phase.start_size))
        events.extend((offset + time, size) for time, size in phase.schedule)
        offset += phase.duration
    return tuple(events)


def phase_boundaries(phases: Sequence[Phase]) -> tuple[dict[str, object], ...]:
    """``(name, start, stop)`` of each phase on the global timeline.

    Returned as plain dicts (``{"name", "start", "stop"}``, with ``stop``
    exclusive) so they serialize directly into result metadata manifests.
    """
    boundaries = []
    offset = 0
    for phase in phases:
        boundaries.append(
            {"name": phase.name, "start": offset, "stop": offset + phase.duration}
        )
        offset += phase.duration
    return tuple(boundaries)
