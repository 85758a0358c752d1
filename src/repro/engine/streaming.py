"""Constant-memory metric reduction for long-horizon runs.

Every stock recorder accumulates one row per snapshot, so a 10^6-snapshot
run holds 10^6 rows in memory per recorder — O(T) growth that caps the
horizons the convergence and holding-time experiments can reach.  This
module provides the streaming counterparts:

* :class:`RunningExtrema` / :class:`RunningColumnStats` — exact running
  count/min/max plus Welford mean/variance, O(1) memory;
* :class:`P2Quantile` — the P² (Jain & Chlamtac, 1985) running quantile
  estimator: five markers per probed quantile, parabolic interpolation,
  no stored samples;
* :class:`ReservoirBuffer` — a uniform sample of a stream (Vitter's
  algorithm R) on a private RNG, so sampling never perturbs engine
  streams;
* :class:`BoundedRowBuffer` — a stride-doubling decimating row buffer:
  keeps every ``stride``-th row, doubling the stride whenever the buffer
  would exceed its capacity, so retained rows stay evenly spaced over the
  whole horizon and memory stays ≤ capacity forever;
* :class:`StreamingEstimateRecorder` — the constant-memory drop-in for
  :class:`repro.engine.recorder.EstimateRecorder`: same row type, same
  ``series()`` columns (decimated), plus exact extrema and P² quantile
  summaries over the *full* undecimated stream.  It implements both
  observation channels — the sequential engine's
  :class:`~repro.engine.recorder.Recorder` interface and the
  engine-agnostic snapshot-hook signature (the instance is callable as
  ``hook(engine, snapshot)``), so one recorder serves all four engines.

Accuracy contract: extrema, counts, and means are exact.  P² quantile
estimates are approximate; on smooth unimodal streams of ``T`` samples the
error is typically well under 1% of the interquartile range (the regression
tests pin < 2.5% of the value range on a 200k-sample mixture stream).  For
exact quantiles of a bounded-size subsample, use :class:`ReservoirBuffer`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.api import EngineSnapshot
from repro.engine.errors import ConfigurationError
from repro.engine.recorder import Recorder, SnapshotStats, quantiles

__all__ = [
    "RunningExtrema",
    "P2Quantile",
    "RunningColumnStats",
    "ReservoirBuffer",
    "BoundedRowBuffer",
    "StreamingEstimateRecorder",
]


class RunningExtrema:
    """Exact running count / minimum / maximum of a stream of floats.

    NaN observations are counted separately and never contaminate the
    extrema, matching how a momentarily-empty population reports NaN
    statistics without erasing the rest of the series.
    """

    def __init__(self) -> None:
        self.count = 0
        self.nan_count = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    def update(self, value: float) -> None:
        value = float(value)
        if value != value:
            self.nan_count += 1
            return
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def summary(self) -> dict[str, float]:
        nan = float("nan")
        return {
            "count": float(self.count),
            "nan_count": float(self.nan_count),
            "minimum": self.minimum if self.count else nan,
            "maximum": self.maximum if self.count else nan,
        }


class P2Quantile:
    """Running estimate of one quantile via the P² algorithm.

    Five markers track the quantile of everything observed so far with O(1)
    memory and O(1) work per observation (Jain & Chlamtac, CACM 1985).
    Until five finite values have arrived the exact small-sample quantile is
    returned; NaN observations are skipped.
    """

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"quantile probability must be in (0, 1), got {p}")
        self.p = float(p)
        self._initial: list[float] = []
        self._q: list[float] | None = None  # marker heights
        self._n: list[float] | None = None  # marker positions
        self._ns: list[float] | None = None  # desired positions

    def update(self, value: float) -> None:
        x = float(value)
        if x != x:
            return
        if self._q is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                p = self.p
                self._q = list(self._initial)
                self._n = [0.0, 1.0, 2.0, 3.0, 4.0]
                self._ns = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]
            return
        q, n, ns = self._q, self._n, self._ns
        assert q is not None and n is not None and ns is not None
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        increments = (0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0)
        for i in range(5):
            ns[i] += increments[i]
        for i in (1, 2, 3):
            d = ns[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (d <= -1.0 and n[i - 1] - n[i] < -1.0):
                sign = 1.0 if d >= 0 else -1.0
                candidate = q[i] + sign / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + sign) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - sign) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
                )
                if not q[i - 1] < candidate < q[i + 1]:
                    # Parabolic prediction left the bracket; fall back to
                    # the linear step in the sign's direction.
                    j = i + int(sign)
                    candidate = q[i] + sign * (q[j] - q[i]) / (n[j] - n[i])
                q[i] = candidate
                n[i] += sign

    def value(self) -> float:
        if self._q is not None:
            return float(self._q[2])
        if not self._initial:
            return float("nan")
        ordered = sorted(self._initial)
        # Exact linear-interpolation quantile while the sample is tiny.
        position = self.p * (len(ordered) - 1)
        low = int(math.floor(position))
        high = min(low + 1, len(ordered) - 1)
        weight = position - low
        return (1.0 - weight) * ordered[low] + weight * ordered[high]


class RunningColumnStats:
    """Exact extrema/mean plus P² quantile probes for one series column."""

    def __init__(self, probes: Sequence[float] = (0.25, 0.5, 0.75)) -> None:
        self.extrema = RunningExtrema()
        self._mean = 0.0
        self._m2 = 0.0
        self.quantiles = {float(p): P2Quantile(p) for p in probes}

    def update(self, value: float) -> None:
        value = float(value)
        self.extrema.update(value)
        if value == value:
            # Welford's running mean/variance over the finite observations.
            count = self.extrema.count
            delta = value - self._mean
            self._mean += delta / count
            self._m2 += delta * (value - self._mean)
        for probe in self.quantiles.values():
            probe.update(value)

    def summary(self) -> dict[str, float]:
        nan = float("nan")
        count = self.extrema.count
        result = self.extrema.summary()
        result["mean"] = self._mean if count else nan
        result["variance"] = self._m2 / (count - 1) if count > 1 else nan
        for p, probe in sorted(self.quantiles.items()):
            result[f"q{p:g}"] = probe.value()
        return result


class ReservoirBuffer:
    """Uniform random sample of a stream (algorithm R), bounded capacity.

    Sampling randomness comes from a private :func:`numpy.random.default_rng`
    generator seeded at construction — never from an engine's stream — so
    attaching or detaching a reservoir cannot change simulation results.
    """

    def __init__(self, capacity: int, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ConfigurationError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.seen = 0
        self._items: list[Any] = []
        self._rng = np.random.default_rng(seed)

    def push(self, item: Any) -> None:
        self.seen += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        slot = int(self._rng.integers(0, self.seen))
        if slot < self.capacity:
            self._items[slot] = item

    @property
    def items(self) -> list[Any]:
        """The current sample (arbitrary order)."""
        return list(self._items)


class BoundedRowBuffer:
    """Decimating row buffer: at most ``capacity`` rows over any horizon.

    Keeps every ``stride``-th appended row; when the retained rows would
    exceed the capacity, every other retained row is dropped and the stride
    doubles.  Retained rows are therefore always evenly spaced from the
    first row to (within one stride of) the latest, and memory is bounded
    by ``capacity`` regardless of how many rows are appended.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 2:
            raise ConfigurationError(f"row buffer capacity must be >= 2, got {capacity}")
        self.capacity = int(capacity)
        self.stride = 1
        self.appended = 0
        self._rows: list[Any] = []

    def append(self, row: Any) -> None:
        if self.appended % self.stride == 0:
            self._rows.append(row)
            if len(self._rows) > self.capacity:
                self._rows = self._rows[::2]
                self.stride *= 2
        self.appended += 1

    @property
    def rows(self) -> list[Any]:
        """The retained rows, oldest first."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class StreamingEstimateRecorder(Recorder):
    """Constant-memory :class:`~repro.engine.recorder.EstimateRecorder`.

    Rows are the same :class:`~repro.engine.recorder.SnapshotStats` /
    :class:`~repro.engine.api.EngineSnapshot` objects and :meth:`series`
    returns the same five columns, but :attr:`rows` is a
    :class:`BoundedRowBuffer` view — at most ``capacity`` evenly spaced
    rows survive no matter how many snapshots arrive — while
    :meth:`summary` reports exact extrema/means and P² quantiles over the
    *full* undecimated stream.

    Works on every engine: attach as a sequential-engine recorder
    (``recorders=[rec]``) or as an engine-agnostic snapshot hook
    (``engine.add_snapshot_hook(rec)`` — the instance is callable with the
    hook's ``(engine, snapshot)`` signature).

    Parameters
    ----------
    capacity:
        Bound on retained rows (the decimated series length).
    probes:
        Quantile probabilities tracked per column by the P² estimators.
    reservoir:
        Optional reservoir size; when positive, a uniform sample of the
        per-snapshot ``median`` values is kept for exact post-hoc
        quantiles of a bounded subsample.
    reservoir_seed:
        Seed of the reservoir's private RNG.
    output_fn:
        Sequential-engine only: custom per-agent output (defaults to the
        protocol's own output), mirroring ``EstimateRecorder``.
    """

    #: Columns fed into the per-column running statistics.
    _STAT_COLUMNS = ("population_size", "minimum", "median", "maximum")

    def __init__(
        self,
        capacity: int = 4096,
        *,
        probes: Sequence[float] = (0.25, 0.5, 0.75),
        reservoir: int = 0,
        reservoir_seed: int = 0,
        output_fn: Callable[[Any], float] | None = None,
    ) -> None:
        self._buffer = BoundedRowBuffer(capacity)
        self._output_fn = output_fn
        self.stats = {name: RunningColumnStats(probes) for name in self._STAT_COLUMNS}
        self.reservoir = (
            ReservoirBuffer(reservoir, seed=reservoir_seed) if reservoir > 0 else None
        )

    # ------------------------------------------------------------ observation

    def on_snapshot(self, parallel_time, population, protocol) -> None:
        """Sequential-engine :class:`Recorder` channel."""
        fn = self._output_fn or protocol.output
        values = [float(fn(state)) for state in population.states()]
        if values:
            lo, med, hi = quantiles(values)
        else:
            lo = med = hi = float("nan")
        self.observe(
            SnapshotStats(
                parallel_time=parallel_time,
                population_size=population.size,
                minimum=lo,
                median=med,
                maximum=hi,
            )
        )

    def __call__(self, engine: Any, snapshot: EngineSnapshot) -> None:
        """Engine-agnostic snapshot-hook channel (all four engines)."""
        self.observe(snapshot)

    def observe(self, snapshot: EngineSnapshot) -> None:
        """Fold one snapshot into the buffer, statistics, and reservoir."""
        self._buffer.append(snapshot)
        for name in self._STAT_COLUMNS:
            self.stats[name].update(getattr(snapshot, name))
        if self.reservoir is not None:
            self.reservoir.push(snapshot.median)

    # ------------------------------------------------------------------ views

    @property
    def rows(self) -> list[SnapshotStats]:
        """The retained (decimated) rows, oldest first."""
        return self._buffer.rows

    @property
    def snapshot_count(self) -> int:
        """Total snapshots observed (before decimation)."""
        return self._buffer.appended

    @property
    def decimation_stride(self) -> int:
        """Current spacing between retained rows, in snapshots."""
        return self._buffer.stride

    def series(self) -> dict[str, list[float]]:
        """Decimated column-oriented series (EstimateRecorder-shaped)."""
        rows = self._buffer.rows
        return {
            "parallel_time": [float(r.parallel_time) for r in rows],
            "population_size": [float(r.population_size) for r in rows],
            "minimum": [r.minimum for r in rows],
            "median": [r.median for r in rows],
            "maximum": [r.maximum for r in rows],
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-column exact extrema/mean and P² quantiles of the full stream."""
        return {name: stats.summary() for name, stats in self.stats.items()}
