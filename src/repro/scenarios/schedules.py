"""Resize-schedule builders for the scenario catalog.

The dynamic population model supports arbitrary adversarial size schedules;
the paper's evaluation only exercises a single decimation (Fig. 4).  The
builders here generate the richer schedules of the scenario catalog —
oscillation, exponential growth followed by a crash, sustained random churn,
repeated decimation — as ``(parallel_time, target_size)`` pairs, the one
schedule format of every engine (validated by
:func:`repro.engine.api.resize_events` and applied at snapshot
granularity).

All builders are deterministic: :func:`random_churn` derives its sizes from
an explicit seed, so a scenario's schedule is a pure function of its preset.

Builders return plain ``((time, size), ...)`` tuples.  A scenario's family
(``"oscillation"``, ``"trace"``, ...) is recorded once, on its spec's
``schedule_kind``, not on the schedule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.api import resize_events
from repro.engine.errors import InvalidScheduleError

__all__ = [
    "oscillation",
    "growth_crash",
    "random_churn",
    "repeated_decimation",
    "merge_schedules",
]

Pairs = tuple[tuple[int, int], ...]


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise InvalidScheduleError(f"{name} must be at least 1, got {value}")


def oscillation(
    n: int, *, low: int, period: int, horizon: int, start: int | None = None
) -> Pairs:
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
    return tuple(events)


def growth_crash(
    n: int,
    *,
    growth_factor: float = 2.0,
    growth_steps: int,
    period: int,
    crash_target: int,
    horizon: int,
) -> Pairs:
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
    return tuple(events)


def random_churn(
    n: int, *, low: int, high: int, period: int, horizon: int, seed: int
) -> Pairs:
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
    return tuple(events)


def repeated_decimation(
    n: int,
    *,
    factor: float = 2.0,
    period: int,
    horizon: int,
    floor: int = 16,
    start: int | None = None,
) -> Pairs:
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
    return tuple(events)


def merge_schedules(*schedules: Sequence[tuple[int, int]]) -> Pairs:
    """Merge several pair schedules into one time-sorted schedule.

    Validates the merge like every engine does
    (:func:`repro.engine.api.resize_events`): duplicate event times across
    the parts are rejected (the merged schedule would otherwise depend on
    application order).
    """
    return resize_events(event for schedule in schedules for event in schedule)
