"""Unit tests of the benchmark's own span arithmetic (no workload runs).

Run with ``python -m pytest perfbench``; the repository's default test run
does not collect this directory.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parents[1] / "src")]

import tracer  # noqa: E402
from workload import percentile_summary  # noqa: E402

MS = 1_000_000
MAIN = 7 * tracer.LANES_PER_PROCESS
JOB = MAIN + 1
WORKER_A = 8 * tracer.LANES_PER_PROCESS
WORKER_B = 9 * tracer.LANES_PER_PROCESS
NAMES = [tracer.ROOT_SPAN, "outer", "inner", "fanout", "shard"]


def span(sid, name, start, end, parent, lane=MAIN):
    return (sid, NAMES.index(name), start * MS, end * MS, parent, 0, lane)


def test_nested_spans_subtract_their_children():
    spans = [
        span(1, tracer.ROOT_SPAN, 0, 100, 0),
        span(2, "outer", 10, 60, 1),
        span(3, "inner", 20, 30, 2),
        span(4, "inner", 40, 45, 2),
    ]
    per_name, unattributed, wall = tracer.self_times(spans, NAMES)
    assert per_name["outer"] == pytest.approx(0.035)
    assert per_name["inner"] == pytest.approx(0.015)
    assert unattributed == pytest.approx(0.050)
    assert wall == pytest.approx(0.100)


def test_spans_adopted_from_another_thread_count_once():
    spans = [
        span(1, tracer.ROOT_SPAN, 0, 100, 0),
        span(2, "outer", 0, 10, 1),
        span(3, "outer", 15, 90, 1, lane=JOB),
    ]
    per_name, unattributed, wall = tracer.self_times(spans, NAMES)
    assert per_name["outer"] == pytest.approx(0.085)
    assert unattributed == pytest.approx(0.015)


def test_parallel_worker_time_is_scaled_to_the_wall_it_covers():
    # Two shards overlap for 40 of the fan-out's 60 ms of shard coverage.
    spans = [
        span(1, tracer.ROOT_SPAN, 0, 100, 0),
        span(2, "fanout", 10, 90, 1),
        span(3, "shard", 20, 70, 2, lane=WORKER_A),
        span(4, "inner", 30, 60, 3, lane=WORKER_A),
        span(5, "shard", 30, 80, 2, lane=WORKER_B),
    ]
    per_name, unattributed, wall = tracer.self_times(spans, NAMES)
    assert per_name["fanout"] == pytest.approx(0.020)
    assert per_name["shard"] + per_name["inner"] == pytest.approx(0.060)
    assert sum(per_name.values()) + unattributed == pytest.approx(wall)


def test_one_worker_running_two_shards_keeps_the_identity(monkeypatch):
    active = tracer.Tracer()
    active._main_pid = -1  # this process plays a forked shard worker
    monkeypatch.setattr(tracer, "ACTIVE", active)
    inner = active.name_id("inner")

    def shard(payload):
        return active.call(inner, time.sleep, (0.002,), {}, None, "inner")

    shipped = [tracer._traced_shard(shard, 2, 0, payload) for payload in range(2)]
    worker_spans = [span for _, spans, _ in shipped for span in spans]
    assert len(worker_spans) == 4  # each shard ships its own two spans, once
    assert len({span[0] for span in worker_spans}) == 4

    names = [tracer.ROOT_SPAN, "fanout", *sorted({span[1] for span in worker_spans})]
    first = min(span[2] for span in worker_spans)
    last = max(span[3] for span in worker_spans)
    spans = [
        (1, 0, first - MS, last + MS, 0, 0, MAIN),
        (2, 1, first - MS // 2, last + MS // 2, 1, 0, MAIN),
        *((s[0], names.index(s[1]), *s[2:]) for s in worker_spans),
    ]
    per_name, unattributed, wall = tracer.self_times(spans, names)
    inner_ns = sum(s[3] - s[2] for s in worker_spans if s[1] == "inner")
    assert per_name["inner"] == pytest.approx(inner_ns / 1e9)
    assert sum(per_name.values()) + unattributed == pytest.approx(wall)


def test_tail_keeps_ten_samples_beyond_it():
    summary = percentile_summary([float(i) for i in range(1, 101)])
    assert summary["p50"] == 50.5
    assert summary["tail"] == 90.0
    assert summary["tail_percentile"] == 90.0
    small = percentile_summary([3.0, 1.0, 2.0])
    assert small["tail"] == 3.0 and small["tail_percentile"] == 100.0
