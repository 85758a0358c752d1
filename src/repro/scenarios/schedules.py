"""Adversary schedule builders for the scenario catalog.

The dynamic population model supports arbitrary adversarial size schedules;
the paper's evaluation only exercises a single decimation (Fig. 4).  The
builders here generate the richer schedules of the scenario catalog —
oscillation, exponential growth followed by a crash, sustained random churn,
repeated decimation — as ``(parallel_time, target_size)`` pairs, the
representation every engine understands (the sequential engine converts them
to a :class:`repro.engine.adversary.ResizeSchedule`, the batched,
ensemble and counts engines consume them natively).

All builders are deterministic: :func:`random_churn` derives its sizes from
an explicit seed, so a scenario's schedule is a pure function of its preset.

Builders return a :class:`Schedule` — a ``tuple`` subclass carrying the
schedule *kind* (its family: ``"oscillation"``, ``"trace"``, ...) and a
human label alongside the pairs.  A ``Schedule`` compares, iterates,
indexes, hashes and pickles exactly like the plain pair-tuple it wraps, so
every existing consumer (``ScenarioPoint``, the engines, ``as_adversary``)
keeps working unchanged.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.engine.adversary import CompositeAdversary, ResizeSchedule, SizeAdversary
from repro.engine.errors import InvalidScheduleError

__all__ = [
    "Schedule",
    "schedule_kind_of",
    "oscillation",
    "growth_crash",
    "random_churn",
    "repeated_decimation",
    "merge_schedules",
    "as_adversary",
    "composite_adversary",
]

Pairs = tuple[tuple[int, int], ...]


class Schedule(tuple):
    """A typed resize schedule: ``(time, size)`` pairs plus provenance.

    Subclasses ``tuple`` so it is drop-in compatible with the plain
    pair-tuples the engines and :class:`~repro.scenarios.spec.ScenarioPoint`
    consume — equality against a plain tuple of the same pairs holds, and
    pickling round-trips both the pairs and the ``kind``/``label``
    metadata (carried in the instance ``__dict__``).
    """

    def __new__(
        cls,
        pairs: Iterable[tuple[int, int]] = (),
        *,
        kind: str = "custom",
        label: str = "",
    ) -> "Schedule":
        normalized = tuple((int(t), int(s)) for t, s in pairs)
        self = super().__new__(cls, normalized)
        self._kind = str(kind)
        self._label = str(label) if label else str(kind)
        return self

    @property
    def kind(self) -> str:
        """The schedule family this was built by (``"oscillation"``, ...)."""
        return self._kind

    @property
    def label(self) -> str:
        """Human one-liner describing the schedule (defaults to ``kind``)."""
        return self._label

    @property
    def pairs(self) -> Pairs:
        """The events as a plain pair-tuple."""
        return tuple(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schedule(kind={self._kind!r}, label={self._label!r}, pairs={tuple(self)!r})"


def schedule_kind_of(pairs: Any) -> str | None:
    """The ``kind`` of a schedule-like value, or ``None`` for plain pairs."""
    return pairs.kind if isinstance(pairs, Schedule) else None


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise InvalidScheduleError(f"{name} must be at least 1, got {value}")


def oscillation(
    n: int, *, low: int, period: int, horizon: int, start: int | None = None
) -> Schedule:
    """Alternate the population between ``low`` and ``n`` every ``period``.

    The first event (at ``start``, default one period in) shrinks to
    ``low``; each subsequent event flips back.  Events stop before
    ``horizon`` so every resize is observable within the run.
    """
    _check_positive("period", period)
    if low < 2 or low >= n:
        raise InvalidScheduleError(f"low must be in [2, n), got low={low}, n={n}")
    first = period if start is None else start
    events = []
    time, target_low = first, True
    while time < horizon:
        events.append((time, low if target_low else n))
        target_low = not target_low
        time += period
    return Schedule(
        events,
        kind="oscillation",
        label=f"oscillate {n}<->{low} every {period}",
    )


def growth_crash(
    n: int,
    *,
    growth_factor: float = 2.0,
    growth_steps: int,
    period: int,
    crash_target: int,
    horizon: int,
) -> Schedule:
    """Exponential growth for ``growth_steps`` periods, then a crash.

    The population is multiplied by ``growth_factor`` every ``period``
    parallel time; one period after the last growth step it crashes to
    ``crash_target`` — the boom-then-bust shape (a flock growing through a
    season, then decimated).
    """
    _check_positive("period", period)
    _check_positive("growth_steps", growth_steps)
    if growth_factor <= 1.0:
        raise InvalidScheduleError(
            f"growth_factor must exceed 1, got {growth_factor}"
        )
    if crash_target < 2:
        raise InvalidScheduleError(f"crash_target must be at least 2, got {crash_target}")
    events = []
    size = float(n)
    time = period
    for _ in range(growth_steps):
        if time >= horizon:
            break
        size *= growth_factor
        events.append((time, int(round(size))))
        time += period
    if time < horizon:
        events.append((time, crash_target))
    return Schedule(
        events,
        kind="growth_crash",
        label=f"x{growth_factor} for {growth_steps} steps, crash to {crash_target}",
    )


def random_churn(
    n: int, *, low: int, high: int, period: int, horizon: int, seed: int
) -> Schedule:
    """Resize to a uniformly random size in ``[low, high]`` every ``period``.

    The sizes are drawn from ``numpy``'s seeded generator, so the schedule
    is deterministic for a given ``seed`` — sustained churn without giving
    up reproducibility.
    """
    _check_positive("period", period)
    if not 2 <= low <= high:
        raise InvalidScheduleError(
            f"need 2 <= low <= high, got low={low}, high={high}"
        )
    rng = np.random.default_rng(seed)
    events = []
    time = period
    while time < horizon:
        events.append((time, int(rng.integers(low, high + 1))))
        time += period
    return Schedule(
        events,
        kind="random_churn",
        label=f"uniform [{low}, {high}] every {period} (seed {seed})",
    )


def repeated_decimation(
    n: int,
    *,
    factor: float = 2.0,
    period: int,
    horizon: int,
    floor: int = 16,
    start: int | None = None,
) -> Schedule:
    """Divide the population by ``factor`` every ``period``, down to ``floor``.

    Fig. 4's single decimation, repeated: each event shrinks the current
    size by ``factor`` until the floor is reached, forcing the protocol to
    re-adapt again and again.
    """
    _check_positive("period", period)
    if factor <= 1.0:
        raise InvalidScheduleError(f"factor must exceed 1, got {factor}")
    if floor < 2:
        raise InvalidScheduleError(f"floor must be at least 2, got {floor}")
    events = []
    size = float(n)
    time = period if start is None else start
    while time < horizon:
        size = max(float(floor), size / factor)
        target = int(round(size))
        events.append((time, target))
        if target <= floor:
            break
        time += period
    return Schedule(
        events,
        kind="repeated_decimation",
        label=f"/{factor} every {period} down to {floor}",
    )


def merge_schedules(*schedules: Sequence[tuple[int, int]]) -> Schedule:
    """Merge several pair schedules into one time-sorted schedule.

    Accepts plain pair sequences and :class:`Schedule` objects alike.
    Duplicate event times across the parts are rejected (the merged
    schedule would otherwise depend on application order).  The result
    keeps the parts' kind when they all agree, and is ``"merged"``
    otherwise.
    """
    merged = sorted(
        ((int(t), int(s)) for schedule in schedules for t, s in schedule),
        key=lambda event: event[0],
    )
    times = [t for t, _ in merged]
    if len(set(times)) != len(times):
        raise InvalidScheduleError("merged schedules must have distinct event times")
    kinds = {kind for kind in map(schedule_kind_of, schedules) if kind is not None}
    kind = kinds.pop() if len(kinds) == 1 else "merged"
    return Schedule(merged, kind=kind)


def as_adversary(pairs: Iterable[tuple[int, int]]) -> ResizeSchedule:
    """Pairs -> sequential-engine adversary (also validates the schedule)."""
    return ResizeSchedule.from_pairs(tuple(pairs))


def composite_adversary(*parts: SizeAdversary) -> CompositeAdversary:
    """Compose several adversaries, applied in the given order each step."""
    return CompositeAdversary(parts)
