"""Tests for the sharded parallel execution layer (repro.engine.parallel).

Covers the seed tree, shard planning, the executor, and the wiring through
``run_engine_trials`` / ``run_scenario`` / ``run_sweep`` / the CLI.  The determinism contract —
bit-identical per-trial results across worker counts — has its own golden
regression module (``test_parallel_determinism.py``); here we test the
mechanisms and the API surface.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path

import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine import parallel
from repro.engine.errors import ConfigurationError, WorkerDiedError
from repro.engine.options import ExecutionOptions
from repro.engine.parallel import (
    DEFAULT_SHARD_SIZE,
    MAX_AUTO_WORKERS,
    ShardPool,
    ShardTiming,
    TrialShard,
    execute_shards,
    merge_shard_results,
    note_registry_change,
    plan_shards,
    resolve_workers,
)
from repro.engine.registry import make_engine
from repro.engine.rng import SeedTree, spawn_streams
from repro.engine.runner import run_engine_trials


# ----------------------------------------------------------------- seed tree


class TestSeedTree:
    def test_trial_streams_match_spawn_streams(self):
        """First-level integer children are bit-compatible with the
        historical ``spawn_streams`` derivation (pins the golden outputs)."""
        tree = SeedTree.from_seed(42)
        legacy = spawn_streams(42, 6)
        for trial in range(6):
            a = legacy[trial].integers(0, 10**9, size=16)
            b = tree.trial(trial).generator().integers(0, 10**9, size=16)
            assert a.tolist() == b.tolist()

    def test_streams_helper_matches_trial_addressing(self):
        tree = SeedTree.from_seed(3)
        via_streams = tree.streams(4)
        for trial, generator in enumerate(via_streams):
            direct = tree.trial(trial).generator()
            assert (
                generator.integers(0, 10**6, 8).tolist()
                == direct.integers(0, 10**6, 8).tolist()
            )

    def test_distinct_base_seeds_produce_distinct_streams(self):
        """The respawn-hazard regression: the root entropy is mixed into
        every trial stream, so two runners with the same trial count but
        different base seeds can never reuse streams."""
        a = SeedTree.from_seed(1)
        b = SeedTree.from_seed(2)
        for trial in range(8):
            left = a.trial(trial).generator().integers(0, 10**9, size=16)
            right = b.trial(trial).generator().integers(0, 10**9, size=16)
            assert left.tolist() != right.tolist()

    def test_address_is_independent_of_sibling_count(self):
        """A trial's stream depends on its address only — not on how many
        sibling trials were spawned around it."""
        few = spawn_streams(9, 2)[1].integers(0, 10**9, 8)
        many = spawn_streams(9, 200)[1].integers(0, 10**9, 8)
        assert few.tolist() == many.tolist()

    def test_string_and_int_namespaces_are_disjoint(self):
        tree = SeedTree.from_seed(5)
        named = tree.child("shard", 0)
        indexed = tree.child(0, 0)
        assert named.spawn_key != indexed.spawn_key
        a = named.generator().integers(0, 10**9, 8).tolist()
        b = indexed.generator().integers(0, 10**9, 8).tolist()
        assert a != b

    def test_string_keys_are_stable(self):
        """String keys hash through SHA-256, so the derived stream is a
        fixed function of the key — across processes and sessions."""
        stream = SeedTree.from_seed(0).child("shard").generator()
        assert stream.integers(0, 10**6, 4).tolist() == (
            SeedTree.from_seed(0).child("shard").generator().integers(0, 10**6, 4).tolist()
        )
        # Pinned spawn key: changing the encoding would silently re-seed
        # every sharded ensemble run.
        assert SeedTree.from_seed(0).child("shard").spawn_key == (
            0x9E3779B9,
            3449304543,
            1539043686,
            2076304068,
            2122095592,
        )

    def test_large_and_negative_int_keys_are_hashed(self):
        tree = SeedTree.from_seed(1)
        assert len(tree.child(2**40).spawn_key) > 1
        assert len(tree.child(-1).spawn_key) > 1
        assert tree.child(2**40).spawn_key != tree.child(-1).spawn_key

    def test_rejects_bad_keys(self):
        tree = SeedTree.from_seed(1)
        with pytest.raises(ValueError):
            tree.child(1.5)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            tree.child(True)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            tree.trial(-1)

    def test_from_seed_none_materialises_entropy_once(self):
        tree = SeedTree.from_seed(None)
        a = tree.trial(0).generator().integers(0, 10**9, 8)
        b = tree.trial(0).generator().integers(0, 10**9, 8)
        assert a.tolist() == b.tolist()

    def test_from_seed_passes_trees_through(self):
        tree = SeedTree.from_seed(7).child("x")
        assert SeedTree.from_seed(tree) is tree

    def test_nodes_pickle_and_hash(self):
        node = SeedTree.from_seed(11).child("scenario", 3).trial(2)
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node
        assert hash(clone) == hash(node)
        assert (
            clone.generator().integers(0, 10**6, 4).tolist()
            == node.generator().integers(0, 10**6, 4).tolist()
        )


# ------------------------------------------------------------ shard planning


class TestPlanShards:
    def test_tiles_the_trial_range(self):
        for trials in (1, 2, 15, 16, 17, 96, 100):
            shards = plan_shards(trials)
            assert shards[0].start == 0
            assert shards[-1].stop == trials
            for left, right in zip(shards, shards[1:]):
                assert left.stop == right.start

    def test_respects_shard_size_cap(self):
        for trials in (1, 16, 33, 96):
            assert all(s.trials <= DEFAULT_SHARD_SIZE for s in plan_shards(trials))

    def test_balanced_within_one_trial(self):
        for trials in (17, 31, 97):
            sizes = [s.trials for s in plan_shards(trials)]
            assert max(sizes) - min(sizes) <= 1

    def test_layout_is_a_pure_function_of_the_workload(self):
        assert plan_shards(96) == plan_shards(96)
        assert plan_shards(96, shard_size=DEFAULT_SHARD_SIZE) == plan_shards(96)
        assert plan_shards(96, shard_size=2 * DEFAULT_SHARD_SIZE) != plan_shards(96)

    def test_single_trial_single_shard(self):
        assert plan_shards(1) == (TrialShard(index=0, start=0, stop=1),)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            plan_shards(0)
        with pytest.raises(ConfigurationError):
            plan_shards(4, shard_size=0)
        with pytest.raises(ConfigurationError):
            TrialShard(index=0, start=3, stop=3)


class TestResolveWorkers:
    def test_none_passthrough(self):
        assert resolve_workers(None) is None

    def test_integers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(6) == 6

    def test_auto_is_capped_positive(self):
        resolved = resolve_workers("auto")
        assert 1 <= resolved <= MAX_AUTO_WORKERS

    def test_rejects_bad_values(self):
        for bad in (0, -2, "four", 2.5, True):
            with pytest.raises(ConfigurationError):
                resolve_workers(bad)  # type: ignore[arg-type]


# ---------------------------------------------------------------- executor


def _square_shard(payload):
    """Module-level shard function so the pool can unpickle it."""
    return [value * value for value in payload]


def _failing_shard(payload):
    raise RuntimeError("shard exploded")


class TestExecuteShards:
    def test_serial_and_parallel_agree_in_order(self):
        payloads = [[1, 2], [3], [4, 5, 6]]
        serial, _ = execute_shards(_square_shard, payloads, workers=1)
        parallel, _ = execute_shards(_square_shard, payloads, workers=3)
        assert serial == parallel == [[1, 4], [9], [16, 25, 36]]

    def test_timings_reported_per_shard(self):
        shards = plan_shards(5, shard_size=2)
        payloads = [list(s.trial_indices()) for s in shards]
        _, timings = execute_shards(_square_shard, payloads, workers=1, shards=shards)
        assert [t.shard for t in timings] == [0, 1, 2]
        assert all(t.seconds >= 0.0 for t in timings)
        assert timings[0].as_dict()["trials"] == shards[0].trials

    def test_worker_errors_propagate(self):
        with pytest.raises(RuntimeError, match="shard exploded"):
            execute_shards(_failing_shard, [[1]], workers=1)
        with pytest.raises(RuntimeError, match="shard exploded"):
            execute_shards(_failing_shard, [[1], [2]], workers=2)

    def test_shard_payload_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_shards(_square_shard, [[1]], workers=1, shards=plan_shards(5, shard_size=2))


def _pid_shard(payload):
    return os.getpid()


def _exit_in_worker(payload):
    """Kill the worker that runs the payload ``"die"``; others report their pid."""
    if payload == "die":
        os._exit(70)
    return os.getpid()


def _die_or_report(payload):
    if payload == "die":
        time.sleep(0.05)
        os._exit(70)
    return os.getpid()


def _pool_seen_in_worker(payload):
    """(inherited binding, pool a sharded call here would use) in a worker."""
    return parallel._CURRENT_POOL.get() is not None, parallel._current_pool()


def _run_pids(pool, payloads=(0, 1), workers=2):
    with pool.activate():
        results, _ = execute_shards(_pid_shard, list(payloads), workers=workers)
    return set(results)


def _children():
    return {process.pid for process in multiprocessing.active_children()}


def _running(pid):
    """Whether ``pid`` is a live process; a zombie is not."""
    try:
        os.kill(pid, 0)
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return state != "Z"


class TestShardPool:
    def test_making_a_pool_starts_no_process(self):
        with ShardPool():
            assert _children() == set()

    def test_workers_are_reused_across_calls_and_reaped_on_close(self):
        with ShardPool() as pool:
            _run_pids(pool)
            workers = _children()
            assert len(workers) == 2 and os.getpid() not in workers
            assert _run_pids(pool, range(4)) <= workers
            assert _children() == workers
        assert _children() == set()

    def test_without_a_current_pool_the_call_reaps_its_workers(self):
        results, _ = execute_shards(_pid_shard, [0, 1], workers=2)
        assert os.getpid() not in results
        assert _children() == set()

    def test_a_run_needing_more_workers_replaces_them(self):
        with ShardPool() as pool:
            _run_pids(pool)
            before = _children()
            _run_pids(pool, range(3), workers=3)
            after = _children()
            assert len(after) == 3 and not before & after

    def test_fewer_shards_keep_the_workers_and_a_lower_cap_replaces_them(self):
        with ShardPool() as pool:
            _run_pids(pool, range(3), workers=3)
            three = _children()
            # Two shards under the same cap: the three warm workers serve them.
            assert _run_pids(pool, range(2), workers=3) <= three
            assert _children() == three
            # A cap of two never runs on three processes.
            assert len(_run_pids(pool, range(3), workers=2)) <= 2
            assert len(_children()) == 2 and not three & _children()

    def test_a_registration_replaces_the_workers(self):
        with ShardPool() as pool:
            _run_pids(pool)
            before = _children()
            _run_pids(pool)
            assert _children() == before
            note_registry_change()
            _run_pids(pool)
            assert not before & _children()

    def test_a_dead_worker_fails_the_call_by_name_and_the_next_call_gets_fresh_workers(
        self,
    ):
        with ShardPool() as pool:
            _run_pids(pool)
            before = _children()
            with pool.activate(), pytest.raises(WorkerDiedError) as failure:
                execute_shards(_exit_in_worker, ["die", "live"], workers=2)
            named = re.search(r"(\d+) \(exit code 70\)", str(failure.value))
            assert named and int(named.group(1)) in before
            assert _children() == set()
            _run_pids(pool)
            assert len(_children()) == 2 and not before & _children()

    def test_a_worker_that_died_while_idle_fails_no_run(self):
        with ShardPool() as pool:
            _run_pids(pool)
            before = _children()
            victim = min(before)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while victim in _children() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert victim not in _children()
            after = _run_pids(pool)
            assert after <= _children() and not before & _children()

    def test_workers_close_the_sockets_they_inherit(self):
        # A warm worker must not keep a server's connections open: once the
        # parent closes its end, the peer reads EOF although the workers live.
        ours, peer = socket.socketpair()
        try:
            with ShardPool() as pool:
                workers = _run_pids(pool)
                ours.close()
                peer.settimeout(30)
                assert peer.recv(1) == b""
                assert workers <= _children()
        finally:
            ours.close()
            peer.close()

    def test_workers_exit_when_the_pool_process_is_killed(self, tmp_path):
        listing = tmp_path / "workers"
        script = (
            "import multiprocessing, os, signal, sys\n"
            "from repro.engine.parallel import ShardPool, execute_shards\n"
            "with ShardPool() as pool, pool.activate():\n"
            "    execute_shards(abs, [0, 1], workers=2)\n"
            "    pids = [p.pid for p in multiprocessing.active_children()]\n"
            "    open(sys.argv[1], 'w').write(' '.join(map(str, pids)))\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        # Output goes to a file: a pipe would stay open in surviving workers.
        errors = tmp_path / "stderr"
        with errors.open("w") as stderr:
            done = subprocess.run(
                [sys.executable, "-c", script, str(listing)],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                timeout=60,
            )
        assert done.returncode == -signal.SIGKILL, errors.read_text()
        workers = [int(pid) for pid in listing.read_text().split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 30
        try:
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)

    def test_pools_forking_at_once_still_see_their_workers_die(self):
        # Two threads fork their pools' workers at once, then one pool loses
        # a worker while the other stays warm.  A death the first pool does
        # not see would hang its run until the warm pool closes.
        def job(payload, barrier, done):
            with ShardPool() as pool, pool.activate():
                barrier.wait(timeout=30)
                try:
                    execute_shards(_die_or_report, [payload, "live"], workers=2)
                except WorkerDiedError:
                    return "died"
                finally:
                    if payload == "die":
                        done.set()
                done.wait(timeout=30)
                return "ok"

        hung = 0
        for _ in range(16):
            barrier, done = threading.Barrier(2), threading.Event()
            with ThreadPoolExecutor(2) as threads:
                dying = threads.submit(job, "die", barrier, done)
                warm = threads.submit(job, "live", barrier, done)
                try:
                    assert dying.result(timeout=10) == "died"
                except FutureTimeoutError:
                    hung += 1
                    done.set()  # closing the warm pool releases the hung run
                assert warm.result(timeout=60) == "ok"
        assert hung == 0

    def test_the_binding_is_per_thread(self):
        seen = []
        with ShardPool() as pool, pool.activate():
            thread = threading.Thread(
                target=lambda: seen.extend(execute_shards(_pid_shard, [0, 1], workers=2)[0])
            )
            thread.start()
            thread.join(timeout=60)
            # The other thread ran on a pool scoped to its call, already reaped.
            assert seen and _children() == set()

    def test_a_worker_ignores_the_pool_binding_it_inherits(self):
        # The forked copy of the parent's pool has no workers in the child; a
        # sharded call there must get a pool of its own, or it waits forever.
        with ShardPool() as pool, pool.activate():
            results, _ = execute_shards(_pool_seen_in_worker, [0, 1], workers=2)
        assert results == [(True, None), (True, None)]


class TestMergeShardResults:
    def test_merge_in_any_order(self):
        shards = plan_shards(7, shard_size=3)
        per_shard = [[f"t{t}" for t in s.trial_indices()] for s in shards]
        expected = [f"t{t}" for t in range(7)]
        assert merge_shard_results(shards, per_shard) == expected
        reordered = list(zip(shards, per_shard))[::-1]
        assert merge_shard_results(
            [s for s, _ in reordered], [r for _, r in reordered]
        ) == expected

    def test_rejects_gaps_overlaps_and_bad_counts(self):
        shards = plan_shards(4, shard_size=2)
        with pytest.raises(ConfigurationError):
            merge_shard_results(shards, [["a", "b"]])
        with pytest.raises(ConfigurationError):
            merge_shard_results(shards, [["a", "b"], ["c"]])
        gappy = (shards[0], TrialShard(index=1, start=3, stop=4))
        with pytest.raises(ConfigurationError):
            merge_shard_results(gappy, [["a", "b"], ["c"]])
        with pytest.raises(ConfigurationError):
            merge_shard_results(
                (TrialShard(index=0, start=1, stop=3),), [["a", "b"]]
            )


# -------------------------------------------------------- run_engine_trials


def _counting_engine_factory(engine_name, rng, ensemble_trials):
    """Module-level factory so the sharded path can pickle it."""
    return make_engine(
        engine_name,
        DynamicSizeCounting(),
        50,
        rng=rng,
        trials=ensemble_trials if engine_name == "ensemble" else None,
    )


class TestRunEngineTrialsWorkers:
    @pytest.mark.parametrize("engine", ["sequential", "batched"])
    def test_looped_engines_sharded_equals_serial(self, engine):
        serial = run_engine_trials(
            _counting_engine_factory, engine=engine, trials=3, seed=5, parallel_time=5
        )
        for workers in (1, 2):
            sharded = run_engine_trials(
                _counting_engine_factory,
                engine=engine,
                trials=3,
                seed=5,
                parallel_time=5,
                workers=workers,
            )
            assert sharded == serial

    def test_ensemble_sharded_consistent_across_worker_counts(self):
        results = {}
        for workers in (1, 2, 4):
            results[workers] = run_engine_trials(
                _counting_engine_factory,
                engine="ensemble",
                trials=20,
                seed=5,
                parallel_time=5,
                workers=workers,
            )
        assert results[1] == results[2] == results[4]
        assert len(results[1]) == 20

    def test_timing_sink_receives_shards(self):
        sink: list[ShardTiming] = []
        run_engine_trials(
            _counting_engine_factory,
            engine="sequential",
            trials=5,
            seed=5,
            parallel_time=3,
            workers=1,
            timing_sink=sink,
        )
        assert len(sink) == 1
        assert sink[0].stop == 5

    def test_workers_auto_accepted(self):
        series = run_engine_trials(
            _counting_engine_factory,
            engine="sequential",
            trials=2,
            seed=5,
            parallel_time=3,
            workers="auto",
        )
        assert len(series) == 2


class TestRunEngineTrialsShards:
    """Stream addressing and shard layout, read through the public runner."""

    def test_workers_none_matches_workers_one_for_looped_engines(self):
        serial = run_engine_trials(
            _counting_engine_factory, engine="sequential", trials=4, seed=11, parallel_time=5
        )
        sharded = run_engine_trials(
            _counting_engine_factory,
            engine="sequential",
            trials=4,
            seed=11,
            parallel_time=5,
            workers=1,
        )
        assert serial == sharded

    def test_worker_counts_are_bit_identical(self):
        one, three = (
            run_engine_trials(
                _counting_engine_factory,
                engine="sequential",
                trials=5,
                seed=11,
                parallel_time=5,
                workers=workers,
            )
            for workers in (1, 3)
        )
        assert len(three) == 5
        assert one == three

    def test_distinct_base_seeds_produce_distinct_streams(self):
        """Respawn-hazard regression at the runner level: same trial count,
        different base seeds, no stream reuse anywhere."""
        first, second = (
            run_engine_trials(
                _counting_engine_factory,
                engine="sequential",
                trials=3,
                seed=seed,
                parallel_time=10,
                workers=2,
            )
            for seed in (100, 200)
        )
        for left, right in zip(first, second):
            assert left != right

    def test_shard_timings_recorded(self):
        sink: list[ShardTiming] = []
        run_engine_trials(
            _counting_engine_factory,
            engine="sequential",
            trials=4,
            seed=1,
            parallel_time=3,
            workers=2,
            timing_sink=sink,
        )
        assert len(sink) == 1  # 4 trials fit one shard
        assert sink[0].stop == 4

    def test_ensemble_sharded_matches_across_worker_counts(self):
        one, four = (
            run_engine_trials(
                _counting_engine_factory,
                engine="ensemble",
                trials=20,
                seed=9,
                parallel_time=6,
                workers=workers,
            )
            for workers in (1, 4)
        )
        assert len(four) == 20
        assert one == four

    def test_ensemble_sharded_splits_the_stack(self):
        sink: list[ShardTiming] = []
        run_engine_trials(
            _counting_engine_factory,
            engine="ensemble",
            trials=20,
            seed=9,
            parallel_time=4,
            workers=1,
            timing_sink=sink,
        )
        assert [t.stop - t.start for t in sink] == [7, 7, 6]

    def test_serial_run_reports_no_shard_timings(self):
        sink: list[ShardTiming] = []
        run_engine_trials(
            _counting_engine_factory,
            engine="ensemble",
            trials=20,
            seed=9,
            parallel_time=4,
            timing_sink=sink,
        )
        assert sink == []

    def test_rejects_bad_workers(self):
        for bad in (0, "many"):
            with pytest.raises(ConfigurationError):
                run_engine_trials(
                    _counting_engine_factory,
                    engine="sequential",
                    trials=2,
                    seed=1,
                    parallel_time=2,
                    workers=bad,
                )


# ----------------------------------------------------- scenarios and sweeps


class TestScenarioWorkers:
    def test_run_scenario_bit_identical_across_worker_counts(self):
        from repro.scenarios import run_scenario

        results = {
            workers: run_scenario(
                "fig3", effort="quick", options=ExecutionOptions(workers=workers)
            )
            for workers in (1, 2)
        }
        assert results[1].rows == results[2].rows
        assert results[1].series == results[2].series
        assert results[1].metadata["workers"] == 1
        assert results[2].metadata["workers"] == 2

    def test_run_scenario_serial_unchanged_for_looped_engines(self):
        from repro.scenarios import run_scenario

        serial = run_scenario("fig3", effort="quick")
        sharded = run_scenario(
            "fig3", effort="quick", options=ExecutionOptions(workers=2)
        )
        # fig3 pins the batched engine (looped), so the sharded path must
        # reproduce the serial rows bit for bit.
        assert sharded.rows == serial.rows
        assert "workers" not in serial.metadata

    def test_shard_timings_in_metadata(self):
        from repro.scenarios import run_scenario

        result = run_scenario(
            "fig3", effort="quick", options=ExecutionOptions(workers=2)
        )
        timings = result.metadata["shard_timings"]
        assert timings
        for shards in timings.values():
            assert all(entry["seconds"] >= 0.0 for entry in shards)

    def test_executor_scenarios_stay_serial(self):
        from repro.scenarios import run_scenario

        with pytest.raises(ConfigurationError, match="cannot honour workers"):
            run_scenario("memory", effort="quick", options=ExecutionOptions(workers=2))

    def test_rejects_bad_workers_before_running(self):
        from repro.scenarios import run_scenario

        with pytest.raises(ConfigurationError):
            run_scenario("fig3", effort="quick", options=ExecutionOptions(workers=0))

    def test_run_sweep_bit_identical_across_worker_counts(self):
        from repro.scenarios import run_sweep
        from repro.scenarios.spec import SweepSpec

        sweep = SweepSpec.from_mapping("fig4", {"keep": (50, 100)})
        by_workers = {
            workers: run_sweep(
                sweep, effort="quick", options=ExecutionOptions(workers=workers)
            )
            for workers in (1, 2)
        }
        labels_1 = [label for label, _ in by_workers[1]]
        labels_2 = [label for label, _ in by_workers[2]]
        assert labels_1 == labels_2 == ["keep=50", "keep=100"]
        for (_, left), (_, right) in zip(by_workers[1], by_workers[2]):
            assert left.rows == right.rows
            assert left.metadata["sweep"] == right.metadata["sweep"]
            assert right.metadata["sweep_seconds"] >= 0.0

    def test_run_sweep_serial_unchanged(self):
        from repro.scenarios import run_sweep
        from repro.scenarios.spec import SweepSpec

        sweep = SweepSpec.from_mapping("fig4", {"keep": (50, 100)})
        legacy = run_sweep(sweep, effort="quick")
        sharded = run_sweep(sweep, effort="quick", options=ExecutionOptions(workers=2))
        for (_, left), (_, right) in zip(legacy, sharded):
            assert left.rows == right.rows


# ------------------------------------------------------------------- CLI


class TestCliWorkers:
    def test_run_accepts_workers_and_prints_shard_timing(self, capsys):
        from repro.experiments.cli import main

        assert main(["run", "fig3", "--effort", "quick", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "shard(s)" in out
        assert "workers=2" in out

    def test_workers_auto_accepted(self, capsys):
        from repro.experiments.cli import main

        assert main(["run", "fig3", "--effort", "quick", "--workers", "auto"]) == 0

    def test_bad_workers_rejected(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["run", "fig3", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["run", "fig3", "--workers", "lots"])

    def test_list_shows_sharding_capability(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "workers: trial-shards" in out
        assert "workers: serial-only" in out

    def test_sweep_accepts_workers(self, capsys):
        from repro.experiments.cli import main

        assert (
            main(
                [
                    "sweep",
                    "fig4",
                    "--effort",
                    "quick",
                    "--set",
                    "keep=50,100",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "point ran in" in out
