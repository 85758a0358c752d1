"""Span tracing around the public functions of each layer, from outside ``src/``.

The benchmark never edits the program.  :class:`Tracer` replaces chosen
functions and methods of the already imported ``repro`` modules with thin
wrappers, records one span per call and restores the originals afterwards.
A span is ``(id, name, start_ns, end_ns, parent_id, run_id, lane)``; spans
stay in memory until :meth:`Tracer.save` writes them once, at the end.

Self time is a span's duration minus the part of it that its child spans
cover.  Children can sit on another thread (a serve job runs on the queue's
thread while the client waits) or in a forked shard worker: workers ship
their spans back with the shard result and the wrapper around
``execute_shards`` adopts them.  Shards run side by side, so their summed
durations exceed the wall time they cover; inside such a parallel region
every worker span's self time is scaled by ``covered wall / summed shard
time``.  That keeps each ``self_s`` a share of wall time, and the self
times of all spans plus the unattributed root time add up to the traced
wall time exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import os
import pickle
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable

ROOT_SPAN = "bench.operation"
SHARD_SPAN = "engine.parallel.shard"

#: Lane ids are ``pid * LANES_PER_PROCESS + thread index``, so
#: ``lane // LANES_PER_PROCESS`` names the process a span ran in.
LANES_PER_PROCESS = 1000

def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _pairs_of_batch(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"pairs": _arg(args, kwargs, 2, "initiators").size}


def _pairs_of_ordered_pairs(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"pairs": _arg(args, kwargs, 2, "count")}


def _pairs_of_matrix(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"pairs": _arg(args, kwargs, 2, "rows") * _arg(args, kwargs, 3, "count")}


def _draws(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"draws": _arg(args, kwargs, 2, "count")}


def _file_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"bytes": os.path.getsize(result)}


def _entry_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {
        "bytes": sum(f.stat().st_size for f in result.path.rglob("*") if f.is_file())
    }


def _hits(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"hits": result is not None}


def _occupied(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"occupied_states_sum": args[0].state.num_states}


#: (span name, module, owner class or None for a module function, attribute,
#: work counter).  Module functions are replaced in every ``repro`` module
#: that imported them by name, so callers see the wrapper too.
FIXED_TARGETS: tuple[tuple[str, str, str | None, str, Any], ...] = (
    ("core.vectorized.interact_batch", "repro.core.vectorized", "VectorizedDynamicCounting", "interact_batch", _pairs_of_batch),
    ("core.vectorized.interact_ensemble", "repro.core.vectorized", "VectorizedDynamicCounting", "interact_ensemble", _pairs_of_batch),
    ("engine.rng.ordered_pairs", "repro.engine.rng", "RandomSource", "ordered_pairs", _pairs_of_ordered_pairs),
    ("engine.rng.ordered_pair_matrix", "repro.engine.rng", "RandomSource", "ordered_pair_matrix", _pairs_of_matrix),
    ("engine.rng.geometric_max_array", "repro.engine.rng", "RandomSource", "geometric_max_array", _draws),
    ("engine.api.quantiles", "repro.engine.api", None, "quantiles", None),
    ("engine.api.matrix_quantiles", "repro.engine.api", None, "matrix_quantiles", None),
    ("engine.counts.step_parallel_round", "repro.engine.counts_engine", "CountsSimulator", "step_parallel_round", _occupied),
    ("engine.counts.PackedCountsKernel.apply", "repro.engine.counts_engine", "PackedCountsKernel", "apply", None),
    ("engine.counts.merge_counts", "repro.engine.counts_engine", None, "merge_counts", None),
    ("engine.counts.multiset_sample", "repro.engine.counts_engine", None, "multiset_sample", None),
    ("scenarios.run_scenario", "repro.scenarios.runner", None, "run_scenario", None),
    ("experiments.run_estimate_trace", "repro.experiments.figures", None, "run_estimate_trace", None),
    ("engine.runner.run_engine_trials", "repro.engine.runner", None, "run_engine_trials", None),
    ("engine.checkpoint.write_checkpoint", "repro.engine.checkpoint", None, "write_checkpoint", _file_bytes),
    ("serve.cache.put", "repro.serve.cache", "ResultCache", "put", _entry_bytes),
    ("serve.cache.get", "repro.serve.cache", "ResultCache", "get", _hits),
    ("serve.keys.canonical_cache_key", "repro.serve.keys", None, "canonical_cache_key", None),
    ("serve.service.submit", "repro.serve.service", "SimulationService", "submit", None),
    ("serve.service.result_payload", "repro.serve.service", "SimulationService", "result_payload", None),
)

#: Methods whose span is named after the engine they run on:
#: ``engine.<engine name>.<attribute>``.
ENGINE_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.api", "Engine", "run"),
    ("repro.engine.api", "ArrayStateEngine", "resize_to"),
    ("repro.engine.ensemble_engine", "EnsembleSimulator", "resize_to"),
    ("repro.engine.counts_engine", "CountsSimulator", "resize_to"),
)


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        #: Parent of spans opened on a thread with no open span of its own
        #: (the serve job thread); :meth:`root` points it at the open root.
        self.adopt_parent = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lanes: dict[tuple[int, int], int] = {}
        self._main_pid = os.getpid()
        self._worker_pid: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def name_id(self, name: str) -> int:
        found = self.names.get(name)
        if found is None:
            found = self.names[name] = len(self.names)
        return found

    def _stack(self) -> list[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            key = (os.getpid(), threading.get_ident())
            local.lane = self._lanes.setdefault(key, os.getpid() * LANES_PER_PROCESS + len(self._lanes))
            return local.stack

    def call(self, name_id: int, fn: Callable, args: tuple, kwargs: dict, counter: Any, name: str) -> Any:
        """Run ``fn`` inside one span; add the counter's work counts."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.adopt_parent
        stack.append(sid)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name_id, start, end, parent, self.run_id, self._local.lane))
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                self.counters[f"{name}.{key}"] += value
        return result

    def root(self, body: Callable[[], Any]) -> Any:
        """Run one operation of a pass under a root span; every other span hangs from one."""
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        self.adopt_parent = sid
        start = perf_counter_ns()
        try:
            return body()
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.adopt_parent = 0
            self.spans.append(
                (sid, self.name_id(ROOT_SPAN), start, end, 0, self.run_id, self._local.lane)
            )

    # ------------------------------------------------------------- patching

    def _wrap(self, name: str, fn: Callable, counter: Any) -> Callable:
        name_id = self.name_id(name)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(name_id, fn, args, kwargs, counter, name)

        return wrapper

    def _wrap_engine_method(self, attribute: str, fn: Callable) -> Callable:
        call = self.call
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(engine: Any, *args: Any, **kwargs: Any) -> Any:
            name = f"engine.{engine.name}.{attribute}"
            name_id = self.name_id(name)
            if attribute != "run":
                return call(name_id, fn, (engine, *args), kwargs, None, name)
            steps, interactions = engine.parallel_time, engine.interactions_executed
            result = call(name_id, fn, (engine, *args), kwargs, None, name)
            counters[f"{name}.steps"] += engine.parallel_time - steps
            counters[f"{name}.interactions"] += engine.interactions_executed - interactions
            return result

        return wrapper

    def _wrap_execute_shards(self, fn: Callable) -> Callable:
        name = "engine.parallel.execute_shards"
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(shard_fn: Callable, payloads: Any, **kwargs: Any) -> Any:
            payloads = list(payloads)
            tracer.counters[f"{name}.payload_bytes"] += len(
                pickle.dumps([(shard_fn, payload) for payload in payloads])
            )
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.adopt_parent
            sid = next(tracer._ids)
            traced_fn = functools.partial(_traced_shard, shard_fn, sid, tracer.run_id)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                outcomes, timings = fn(traced_fn, payloads, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, name_id, start, end, parent, tracer.run_id, tracer._local.lane))
            results = []
            for result, spans, counters in outcomes:
                results.append(result)
                tracer.spans.extend((s[0], tracer.name_id(s[1]), *s[2:]) for s in spans)
                for key, value in counters.items():
                    tracer.counters[key] += value
            compute = [timing.seconds for timing in timings]
            tracer.counters[f"{name}.shards"] += len(payloads)
            tracer.counters[f"{name}.wall_s"] += (end - start) / 1e9
            tracer.counters[f"{name}.shard_compute_s"] += sum(compute)
            tracer.counters[f"{name}.dispatch_s"] += (end - start) / 1e9 - max(compute, default=0.0)
            return results, timings

        return wrapper

    def install(self) -> None:
        """Replace every target in the imported ``repro`` modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name in {t[1] for t in FIXED_TARGETS} | {t[0] for t in ENGINE_TARGETS}:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m is not None]
        for name, module_name, owner, attribute, counter in FIXED_TARGETS:
            module = sys.modules[module_name]
            if owner is None:
                original = getattr(module, attribute)
                self._patch_everywhere(modules, original, self._wrap(name, original, counter))
            else:
                cls = getattr(module, owner)
                self._patch(cls, attribute, self._wrap(name, cls.__dict__[attribute], counter))
        for module_name, owner, attribute in ENGINE_TARGETS:
            cls = getattr(sys.modules[module_name], owner)
            self._patch(cls, attribute, self._wrap_engine_method(attribute, cls.__dict__[attribute]))
        original = sys.modules["repro.engine.parallel"].execute_shards
        self._patch_everywhere(modules, original, self._wrap_execute_shards(original))

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, modules: list, original: Any, replacement: Any) -> None:
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def uninstall(self) -> None:
        """Put every original back (in reverse order, so nesting unwinds)."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # --------------------------------------------------------------- output

    def save(self, path: str) -> None:
        """Write every span once, as gzipped JSON (names listed separately)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(
                {
                    "fields": ["id", "name", "start_ns", "end_ns", "parent", "run", "lane"],
                    "names": sorted(self.names, key=self.names.get),
                    "spans": self.spans,
                },
                handle,
            )


#: The tracer of this process; set by the workload before installing, and
#: inherited by forked shard workers.
ACTIVE: Tracer | None = None


def _traced_shard(fn: Callable, parent: int, run_id: int, payload: Any) -> Any:
    """Run one shard under a span; in a forked worker also ship the spans back."""
    tracer = ACTIVE
    assert tracer is not None
    shard_id = tracer.name_id(SHARD_SPAN)
    pid = os.getpid()
    if pid == tracer._main_pid:
        return tracer.call(shard_id, fn, (payload,), {}, None, SHARD_SPAN), [], {}
    if pid != tracer._worker_pid:
        # First shard in this forked worker: its memory still holds the
        # parent's id counter.  A worker that runs a second shard keeps
        # counting, so the two shards' spans never share an id.
        tracer._worker_pid = pid
        tracer._ids = itertools.count(pid << 32)
    # Ship only this shard's spans: forked memory holds the parent's, and a
    # worker's second shard would otherwise resend its first's.
    tracer.spans.clear()
    tracer.counters.clear()
    tracer._local = threading.local()
    tracer.adopt_parent = parent
    tracer.run_id = run_id
    result = tracer.call(shard_id, fn, (payload,), {}, None, SHARD_SPAN)
    names = {index: name for name, index in tracer.names.items()}
    # Name ids are only valid in this process: ship names, the parent maps
    # them back to its own table.
    spans = [(s[0], names[s[1]], *s[2:]) for s in tracer.spans]
    return result, spans, dict(tracer.counters)


def self_times(spans: list[tuple], names: list[str]) -> tuple[dict[str, float], float, float]:
    """Self seconds per span name, unattributed root seconds and root wall seconds.

    ``spans`` are ``(id, name index, start_ns, end_ns, parent, run, lane)``.
    A span's self time is its duration minus the union of its children's
    intervals clipped to it.  Children that run in other processes overlap
    each other; the whole subtree under such a child is scaled by ``union /
    sum`` of those children's durations (see the module docstring).
    """
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[4]:
            children[span[4]].append(span)
    root_id = names.index(ROOT_SPAN) if ROOT_SPAN in names else -1
    per_name: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    wall = 0.0
    pending = [(span, 1.0) for span in spans if span[1] == root_id]
    while pending:
        span, scale = pending.pop()
        kids = sorted(children.get(span[0], ()), key=lambda s: s[2])
        covered = 0
        cursor = span[2]
        for kid in kids:
            lo, hi = max(kid[2], cursor), min(kid[3], span[3])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own = (span[3] - span[2] - covered) / 1e9 * scale
        if span[1] == root_id:
            unattributed += own
            wall += (span[3] - span[2]) / 1e9
        else:
            per_name[names[span[1]]] += own
        kid_lanes = {kid[6] for kid in kids}
        if len(kid_lanes) > 1 and any(
            lane // LANES_PER_PROCESS != span[6] // LANES_PER_PROCESS for lane in kid_lanes
        ):
            lane_time = sum(kid[3] - kid[2] for kid in kids)
            kid_scale = scale * covered / lane_time if lane_time else scale
        else:
            kid_scale = scale
        pending.extend((kid, kid_scale) for kid in kids)
    return dict(per_name), unattributed, wall
