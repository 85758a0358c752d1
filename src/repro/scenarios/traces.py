"""Trace-driven resize schedules: CSV load curves -> adversary schedules.

The synthetic builders in :mod:`repro.scenarios.schedules` generate shapes;
a :class:`Trace` instead carries a *measured* (or measured-looking) load
curve — request rates over a day, a flash crowd, connection churn — and
resamples it onto the simulation's interaction-time axis as plain
``(time, size)`` pairs, so the protocol is evaluated under realistic
population dynamics.

Two CSV layouts are understood, sniffed from the header row:

* ``timestamp,size`` (aliases ``time``/``t``/``step`` for the first
  column) — absolute population sizes at monotonically increasing times.
  The time unit is arbitrary: only the *relative* spacing matters, because
  :meth:`Trace.resample` maps the span onto the run horizon.
* ``step,delta`` — cumulative sizes: row ``i``'s size is the running sum
  of the deltas up to and including row ``i`` (the first delta is the
  starting size).

Validation is strict and up front: an empty CSV, non-monotonic or
duplicate times, non-numeric cells, and sizes below 2 (the engine minimum)
all raise :class:`~repro.engine.errors.InvalidScheduleError` with the
offending row.

A handful of example traces ship with the package (under
``repro/scenarios/data/``) and back the ``flash_crowd`` and ``diurnal``
catalog scenarios; :func:`bundled_trace` loads them by name.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.engine.errors import InvalidScheduleError

__all__ = ["Trace", "bundled_trace", "bundled_trace_names"]

#: Directory holding the bundled example traces (shipped as package data).
_DATA_DIR = Path(__file__).resolve().parent / "data"

#: Accepted spellings of the time column in the absolute-size layout.
_TIME_COLUMNS = ("timestamp", "time", "t", "step")


@dataclass(frozen=True)
class Trace:
    """A validated load curve: strictly increasing times, sizes >= 2."""

    name: str
    times: tuple[float, ...]
    sizes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times:
            raise InvalidScheduleError(f"trace {self.name!r} has no samples")
        if len(self.times) != len(self.sizes):
            raise InvalidScheduleError(
                f"trace {self.name!r}: {len(self.times)} times but "
                f"{len(self.sizes)} sizes"
            )
        for i in range(1, len(self.times)):
            if self.times[i] <= self.times[i - 1]:
                raise InvalidScheduleError(
                    f"trace {self.name!r}: non-monotonic time at sample {i} "
                    f"({self.times[i]!r} after {self.times[i - 1]!r})"
                )
        for i, size in enumerate(self.sizes):
            if size < 2:
                raise InvalidScheduleError(
                    f"trace {self.name!r}: size {size!r} at sample {i} is "
                    "below the engine minimum of 2"
                )

    # ------------------------------------------------------------- loading

    @classmethod
    def from_csv(cls, path: str | Path, *, name: str | None = None) -> "Trace":
        """Load a trace from a CSV file (layouts sniffed from the header)."""
        path = Path(path)
        trace_name = name if name is not None else path.stem
        try:
            text = path.read_text()
        except OSError as exc:
            raise InvalidScheduleError(
                f"trace {trace_name!r}: cannot read {path}: {exc}"
            ) from exc
        return cls.from_text(text, name=trace_name)

    @classmethod
    def from_text(cls, text: str, *, name: str = "trace") -> "Trace":
        """Parse CSV text into a trace (see the module docstring for layouts)."""
        rows = [
            row
            for row in csv.reader(io.StringIO(text))
            if row and any(cell.strip() for cell in row)
        ]
        if not rows:
            raise InvalidScheduleError(f"trace {name!r}: empty CSV")
        header = [cell.strip().lower() for cell in rows[0]]
        body = rows[1:]
        if not body:
            raise InvalidScheduleError(f"trace {name!r}: CSV has a header but no data rows")

        if "size" in header:
            time_column = next(
                (header.index(column) for column in _TIME_COLUMNS if column in header),
                None,
            )
            if time_column is None:
                raise InvalidScheduleError(
                    f"trace {name!r}: no time column among {_TIME_COLUMNS} "
                    f"in header {header}"
                )
            size_column = header.index("size")
            times = [
                _cell(name, row, time_column, line) for line, row in enumerate(body, 2)
            ]
            sizes = [
                _cell(name, row, size_column, line) for line, row in enumerate(body, 2)
            ]
        elif "delta" in header and "step" in header:
            step_column = header.index("step")
            delta_column = header.index("delta")
            times = [
                _cell(name, row, step_column, line) for line, row in enumerate(body, 2)
            ]
            running = 0.0
            sizes = []
            for line, row in enumerate(body, 2):
                running += _cell(name, row, delta_column, line)
                sizes.append(running)
        else:
            raise InvalidScheduleError(
                f"trace {name!r}: unrecognised header {header}; expected "
                "(timestamp|time|t|step, size) or (step, delta)"
            )
        return cls(name=name, times=tuple(times), sizes=tuple(sizes))

    # ---------------------------------------------------------- resampling

    @property
    def initial_size(self) -> float:
        """The curve's starting size (mapped to the run's ``n``)."""
        return self.sizes[0]

    def resample(self, *, horizon: int, n: int) -> tuple[tuple[int, int], ...]:
        """Map the curve onto a run: ``n`` agents over ``horizon`` time.

        The trace's first sample becomes the initial population (so the
        whole curve is scaled by ``n / sizes[0]``), its time span is mapped
        linearly onto ``[0, horizon - 1]``, and every later sample becomes a
        resize event at the corresponding parallel time (clamped into
        ``[1, horizon - 1]`` so every event is observable).  Samples that
        collide on one parallel-time step after rounding keep the last —
        the curve's most recent value wins, as it would in a real replay.
        Scaled sizes are clamped to the engine minimum of 2.
        """
        if n < 2:
            raise InvalidScheduleError(f"population size must be at least 2, got {n}")
        if horizon < 2:
            raise InvalidScheduleError(f"horizon must be at least 2, got {horizon}")
        scale = n / self.sizes[0]
        span = self.times[-1] - self.times[0]
        events: dict[int, int] = {}
        for time, size in zip(self.times[1:], self.sizes[1:]):
            fraction = (time - self.times[0]) / span
            step = min(max(int(round(fraction * (horizon - 1))), 1), horizon - 1)
            events[step] = max(2, int(round(size * scale)))
        return tuple(sorted(events.items()))


def _cell(name: str, row: Sequence[str], column: int, line: int) -> float:
    """One numeric CSV cell, with a row-numbered error on anything else."""
    try:
        value = float(row[column].strip())
    except (IndexError, ValueError) as exc:
        raise InvalidScheduleError(
            f"trace {name!r}: bad numeric cell in CSV line {line}: {row!r}"
        ) from exc
    if value != value or value in (float("inf"), float("-inf")):
        raise InvalidScheduleError(
            f"trace {name!r}: non-finite value in CSV line {line}: {row!r}"
        )
    return value


def bundled_trace_names() -> tuple[str, ...]:
    """Names of the example traces shipped with the package."""
    return tuple(sorted(path.stem for path in _DATA_DIR.glob("*.csv")))


def bundled_trace(name: str) -> Trace:
    """Load a bundled example trace by name (see :func:`bundled_trace_names`)."""
    path = _DATA_DIR / f"{name}.csv"
    if not path.is_file():
        available = ", ".join(bundled_trace_names()) or "<none>"
        raise InvalidScheduleError(
            f"no bundled trace named {name!r}; available: {available}"
        )
    return Trace.from_csv(path, name=name)
