"""Checkpoint/resume: container integrity, engine round-trips, determinism.

The determinism matrix is the heart of the long-horizon contract: for every
checkpoint-capable engine, at workers 1 and 4, a run interrupted by the
deterministic fault-injection knob (``interrupt_after``) and resumed from
its on-disk checkpoints must reproduce the uninterrupted run's per-trial
snapshot series **bit-identically** — not approximately.  Corruption is the
other half: a truncated or tampered checkpoint must fail loudly with
``CheckpointError``, never resume silently wrong.
"""

from __future__ import annotations

import errno
import json
import os

import pytest

from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine import checkpoint as checkpoint_module
from repro.engine.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointInterrupted,
    read_checkpoint,
    write_checkpoint,
)
from repro.engine.errors import CheckpointError, ConfigurationError
from repro.engine.registry import engine_info, make_engine
from repro.engine.rng import RandomSource
from repro.engine.runner import run_engine_trials

N = 32
TRIALS = 10
PARALLEL_TIME = 12
SNAPSHOT_EVERY = 2
CHECKPOINT_EVERY = 4
SEED = 20240726

ENGINES = ("sequential", "batched", "ensemble", "counts")


def _factory(engine_name, rng, ensemble_trials):
    """Module-level engine factory so worker processes can unpickle it."""
    return make_engine(
        engine_name,
        DynamicSizeCounting(),
        N,
        rng=rng,
        trials=ensemble_trials if engine_name == "ensemble" else None,
    )


def _run(engine, workers, **knobs):
    return run_engine_trials(
        _factory,
        engine=engine,
        trials=TRIALS,
        seed=SEED,
        parallel_time=PARALLEL_TIME,
        snapshot_every=SNAPSHOT_EVERY,
        workers=workers,
        **knobs,
    )


# ------------------------------------------------------------- container


class TestCheckpointContainer:
    def test_round_trip(self, tmp_path):
        payload = {"answer": 42, "series": [1.0, float("nan"), 3.0]}
        path = write_checkpoint(tmp_path / "x.ckpt", payload, kind="engine")
        loaded = read_checkpoint(path, kind="engine")
        assert loaded["answer"] == 42
        assert loaded["series"][0] == 1.0 and loaded["series"][1] != loaded["series"][1]

    def test_kind_mismatch_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path / "x.ckpt", {"a": 1}, kind="engine")
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path, kind="shard")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(tmp_path / "absent.ckpt")

    def test_truncated_file_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path / "x.ckpt", {"a": list(range(1000))}, kind="engine")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path / "x.ckpt", {"a": list(range(1000))}, kind="engine")
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip one payload byte; the sha256 must catch it
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"not-a-checkpoint\n{}\n")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_schema_one_file_rejected(self, tmp_path):
        # Version 1 files predate the one-row batched engine: their planes
        # and trial series come from another random stream.
        path = write_checkpoint(tmp_path / "x.ckpt", {"completed": []}, kind="shard")
        magic, header, body = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields["schema_version"] = 1
        header = json.dumps(fields, sort_keys=True).encode("ascii")
        path.write_bytes(b"\n".join([magic, header, body]))
        with pytest.raises(CheckpointError, match="schema version 1"):
            read_checkpoint(path, kind="shard")

    def test_schema_two_file_rejected(self, tmp_path):
        # Version 2 predates stacked batched trials: its readers cannot
        # restore a multi-row payload with one RNG state per row.
        path = write_checkpoint(tmp_path / "x.ckpt", {"completed": []}, kind="shard")
        magic, header, body = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields["schema_version"] = 2
        header = json.dumps(fields, sort_keys=True).encode("ascii")
        path.write_bytes(b"\n".join([magic, header, body]))
        with pytest.raises(CheckpointError, match="schema version 2"):
            read_checkpoint(path, kind="shard")

    def test_schema_three_file_rejected(self, tmp_path):
        # Version 3 predates the one resize schedule: its sequential engine
        # payloads pickle an adversary object whose class is gone.
        path = write_checkpoint(tmp_path / "x.ckpt", {"state": {}}, kind="engine")
        magic, header, body = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        assert fields["schema_version"] == 4
        fields["schema_version"] = 3
        header = json.dumps(fields, sort_keys=True).encode("ascii")
        path.write_bytes(b"\n".join([magic, header, body]))
        with pytest.raises(CheckpointError, match="schema version 3"):
            read_checkpoint(path, kind="engine")

    def test_unpicklable_payload_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            write_checkpoint(tmp_path / "x.ckpt", {"fn": lambda: None}, kind="engine")
        assert list(tmp_path.iterdir()) == []  # no partial file left behind


# -------------------------------------------------------- engine round-trip


def _through_file(engine, path):
    """The engine's checkpoint payload, written to ``path`` and read back."""
    write_checkpoint(path, engine.checkpoint_payload(), kind="engine")
    return read_checkpoint(path, kind="engine")


class TestEngineCheckpoint:
    def test_engine_without_state_payload_refuses_to_checkpoint(self):
        # The engine table has no checkpoint flag: an engine that cannot
        # serialise its state says so when asked for a checkpoint.
        from repro.engine.api import Engine

        class Stateless(Engine):
            name = "stateless"
            size = 2

            def outputs(self):
                return [0.0, 0.0]

            def _advance_one_parallel_step(self):
                pass

            def _take_snapshot(self):
                raise AssertionError("not run")

            def _build_result(self, snapshots, stopped_early):
                raise AssertionError("not run")

        assert not hasattr(engine_info("batched"), "supports_checkpoint")
        with pytest.raises(CheckpointError, match="'stateless' does not support checkpoints"):
            Stateless().checkpoint_payload()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_save_restore_continues_bit_identically(self, engine, tmp_path):
        trials = 3 if engine == "ensemble" else None

        def build():
            return make_engine(
                engine,
                DynamicSizeCounting(),
                N,
                rng=RandomSource.from_seed(7),
                trials=trials,
            )

        continuous = build()
        baseline = continuous.run(10, snapshot_every=SNAPSHOT_EVERY).series()

        first = build()
        first.run(4, snapshot_every=SNAPSHOT_EVERY)
        payload = _through_file(first, tmp_path / "engine.ckpt")

        second = build()
        second.apply_checkpoint_payload(payload)
        tail = second.run(6, snapshot_every=SNAPSHOT_EVERY).series()
        head_len = {key: len(baseline[key]) - len(tail[key]) for key in baseline}
        stitched = {
            key: baseline[key][: head_len[key]] + tail[key] for key in baseline
        }
        assert stitched == baseline

    @pytest.mark.parametrize("engine", ENGINES)
    def test_resize_schedule_position_survives_a_checkpoint(self, engine, tmp_path):
        # Saved between the two events: the restored engine must not apply
        # the first again, and must apply the second.
        def build():
            return make_engine(
                engine,
                DynamicSizeCounting(),
                N,
                rng=RandomSource.from_seed(7),
                resize_schedule=[(2, 12), (6, 48)],
            )

        baseline = build().run(8).series()
        first = build()
        first.run(4)
        payload = first.checkpoint_payload()
        assert payload["resize_cursor"] == 1
        assert "adversary" not in payload["state"]
        path = write_checkpoint(tmp_path / "engine.ckpt", payload, kind="engine")
        second = build()
        second.apply_checkpoint_payload(read_checkpoint(path, kind="engine"))
        second.resize_to(20)  # a stale first event would undo this at t = 5
        tail = second.run(4).series()
        assert tail["population_size"] == [20, 48, 48, 48]
        # Without the manual resize the resumed run is the baseline's tail.
        third = build()
        third.apply_checkpoint_payload(read_checkpoint(path, kind="engine"))
        assert third.run(4).series() == {key: baseline[key][4:] for key in baseline}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_malformed_payload_rejected(self, engine):
        built = make_engine(engine, DynamicSizeCounting(), N, rng=RandomSource.from_seed(7))
        for payload in ([], {"engine": engine}):
            with pytest.raises(CheckpointError, match="malformed engine checkpoint payload"):
                built.apply_checkpoint_payload(payload)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rng_state_that_does_not_fit_is_rejected(self, engine):
        def build():
            return make_engine(engine, DynamicSizeCounting(), N, rng=RandomSource.from_seed(7))

        first = build()
        first.run(2)
        payload = first.checkpoint_payload()
        # One row's state in the per-row list form of a stacked engine's streams.
        payload["rng_state"] = [payload["rng_state"]]
        with pytest.raises(CheckpointError, match="RNG state does not fit this engine"):
            build().apply_checkpoint_payload(payload)

    def test_restore_into_wrong_engine_rejected(self, tmp_path):
        sequential = make_engine(
            "sequential", DynamicSizeCounting(), N, rng=RandomSource.from_seed(7)
        )
        sequential.run(2)
        payload = _through_file(sequential, tmp_path / "seq.ckpt")
        batched = make_engine(
            "batched", DynamicSizeCounting(), N, rng=RandomSource.from_seed(7)
        )
        with pytest.raises(CheckpointError, match="sequential"):
            batched.apply_checkpoint_payload(payload)


# ----------------------------------------------------- determinism matrix


class TestKillAndResume:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", (1, 4))
    def test_interrupted_resume_is_bit_identical(self, engine, workers, tmp_path):
        baseline = _run(engine, workers)
        with pytest.raises(CheckpointInterrupted):
            _run(
                engine,
                workers,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=3,
            )
        assert list(tmp_path.glob("shard_*.ckpt")), "no checkpoint left on disk"
        resumed = _run(engine, workers, resume_from=tmp_path)
        assert resumed == baseline
        # Resuming an already-finished run is idempotent.
        assert _run(engine, workers, resume_from=tmp_path) == baseline

    def test_serial_checkpointed_matches_workers_one(self, tmp_path):
        # Looped engines address every trial's stream the same way with or
        # without shards, so a resumed workers=None run matches workers=1.
        baseline = _run("sequential", 1)
        with pytest.raises(CheckpointInterrupted):
            _run(
                "sequential",
                None,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=2,
            )
        assert _run("sequential", None, resume_from=tmp_path) == baseline


class _DiskFillsUp:
    """``os`` as the checkpoint module sees it, with the disk filling up mid-run.

    The ``fail_at``-th checkpoint file written through it gets half its bytes
    before the write raises ``ENOSPC``; the checkpoint files already in
    ``watch`` at that moment are recorded.  Every other call is the real
    ``os``.
    """

    def __init__(self, fail_at: int, watch) -> None:
        self.fail_at = fail_at
        self.watch = watch
        self.checkpoints = 0
        self.before_failure: dict[str, bytes] | None = None

    def __getattr__(self, name):
        return getattr(os, name)

    def fdopen(self, fd, mode="r"):
        return _FillingStream(os.fdopen(fd, mode), self)


class _FillingStream:
    def __init__(self, stream, disk: _DiskFillsUp) -> None:
        self.stream = stream
        self.disk = disk

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stream.close()

    def write(self, data: bytes) -> int:
        disk = self.disk
        if data.startswith(CHECKPOINT_MAGIC):
            disk.checkpoints += 1
            if disk.checkpoints == disk.fail_at:
                disk.before_failure = {
                    path.name: path.read_bytes() for path in disk.watch.glob("shard_*.ckpt")
                }
                self.stream.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.stream.write(data)


class TestDiskFull:
    """A checkpoint write that runs out of disk ends the run cleanly and resumably."""

    @pytest.mark.parametrize("engine", ("batched", "ensemble"))
    def test_enospc_mid_run_keeps_the_previous_checkpoint_and_resumes(
        self, engine, tmp_path, monkeypatch
    ):
        baseline = _run(engine, 1)
        # The second checkpoint write of the first shard: a segment boundary
        # inside the horizon, after one complete write of that shard.
        disk = _DiskFillsUp(fail_at=2, watch=tmp_path)
        monkeypatch.setattr(checkpoint_module, "os", disk)
        with pytest.raises(OSError) as failure:
            _run(engine, 1, checkpoint_every=CHECKPOINT_EVERY, checkpoint_dir=tmp_path)
        monkeypatch.undo()

        assert failure.value.errno == errno.ENOSPC
        assert list(tmp_path.rglob("*.tmp")) == []
        assert disk.before_failure is not None and list(disk.before_failure) == ["shard_0-5.ckpt"]
        on_disk = {path.name: path.read_bytes() for path in tmp_path.glob("shard_*.ckpt")}
        assert on_disk == disk.before_failure
        previous = read_checkpoint(tmp_path / "shard_0-5.ckpt", kind="shard")
        assert previous["done"] is False and previous["engine_payload"] is not None

        resumed = _run(engine, 1, resume_from=tmp_path)
        assert json.dumps(resumed) == json.dumps(baseline)


# ------------------------------------------------------------ fail loudly


class TestCheckpointFailureModes:
    def test_truncated_shard_checkpoint_fails_resume(self, tmp_path):
        with pytest.raises(CheckpointInterrupted):
            _run(
                "sequential",
                1,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=2,
            )
        victim = sorted(tmp_path.glob("shard_*.ckpt"))[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            _run("sequential", 1, resume_from=tmp_path)

    def test_workload_mismatch_fails_resume(self, tmp_path):
        with pytest.raises(CheckpointInterrupted):
            _run(
                "sequential",
                1,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=2,
            )
        with pytest.raises(CheckpointError, match="manifest"):
            run_engine_trials(
                _factory,
                engine="sequential",
                trials=TRIALS,
                seed=SEED + 1,  # different run: must not mix checkpoints
                parallel_time=PARALLEL_TIME,
                snapshot_every=SNAPSHOT_EVERY,
                workers=1,
                resume_from=tmp_path,
            )

    def test_corrupt_manifest_fails_resume(self, tmp_path):
        with pytest.raises(CheckpointInterrupted):
            _run(
                "sequential",
                1,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=2,
            )
        (tmp_path / "manifest.json").write_text("{ not json")
        with pytest.raises(CheckpointError):
            _run("sequential", 1, resume_from=tmp_path)

    def test_cadence_must_be_multiple_of_snapshot_cadence(self, tmp_path):
        with pytest.raises(ConfigurationError, match="multiple"):
            _run("sequential", 1, checkpoint_every=3, checkpoint_dir=tmp_path)

    def test_checkpoint_dir_requires_a_cadence(self, tmp_path):
        with pytest.raises(ConfigurationError, match="checkpoint_every is required"):
            _run("sequential", 1, checkpoint_dir=tmp_path)

    def test_resume_from_a_directory_without_manifest_requires_a_cadence(self, tmp_path):
        with pytest.raises(ConfigurationError, match="checkpoint_every is required"):
            _run("sequential", 1, resume_from=tmp_path)

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError, match="at least 1, got 0"):
            _run("sequential", 1, checkpoint_every=0, checkpoint_dir=tmp_path)

    def test_manifest_without_a_cadence_fails_resume(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"trials": TRIALS}))
        with pytest.raises(CheckpointError, match="unreadable checkpoint manifest"):
            _run("sequential", 1, resume_from=tmp_path)

    def test_checkpoint_every_requires_directory(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            _run("sequential", 1, checkpoint_every=CHECKPOINT_EVERY)

    def test_interrupt_after_requires_checkpointing(self):
        with pytest.raises(ConfigurationError, match="interrupt_after"):
            _run("sequential", 1, interrupt_after=1)

    def test_manifest_pins_full_workload(self, tmp_path):
        with pytest.raises(CheckpointInterrupted):
            _run(
                "sequential",
                1,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=2,
            )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["engine"] == "sequential"
        assert manifest["trials"] == TRIALS
        assert manifest["seed"] == SEED
        assert manifest["parallel_time"] == PARALLEL_TIME
        assert manifest["checkpoint_every"] == CHECKPOINT_EVERY


class TestCheckpointingNeverChangesResults:
    """Checkpointing is a write hook: same ``workers``, same results."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_serial_checkpointed_equals_plain(self, engine, tmp_path):
        # workers=None is one shard on the root stream, checkpointed or not.
        plain = _run(engine, None)
        checkpointed = _run(
            engine, None, checkpoint_every=CHECKPOINT_EVERY, checkpoint_dir=tmp_path
        )
        assert checkpointed == plain

    def test_serial_ensemble_interrupted_resume_equals_plain(self, tmp_path):
        plain = _run("ensemble", None)
        with pytest.raises(CheckpointInterrupted):
            _run(
                "ensemble",
                None,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=1,
            )
        assert _run("ensemble", None, resume_from=tmp_path) == plain

    @pytest.mark.parametrize("workers", [None, 1])
    def test_batched_resume_inside_a_stack_of_several(self, tmp_path, monkeypatch, workers):
        # Three rows per stack: a shard of 10 (or 5) trials runs stacks of
        # 3, 3, 3, 1 (or 3, 2), each writing at t = 4, t = 8 and its end.
        # The fifth write lands at t = 8 inside the second stack, which
        # holds 3 (or 2) rows.
        from repro.engine.ensemble_engine import EnsembleSimulator

        monkeypatch.setattr(EnsembleSimulator, "_BLOCK_STATE_BYTES", 3 * N * 24)
        plain = _run("batched", workers)
        with pytest.raises(CheckpointInterrupted):
            _run(
                "batched",
                workers,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=5,
            )
        state = read_checkpoint(sorted(tmp_path.glob("shard_*.ckpt"))[0], kind="shard")
        assert state["trial"] == 3 and len(state["completed"]) == 3
        engine_payload = state["engine_payload"]
        assert engine_payload["parallel_time"] == 8
        rows = 3 if workers is None else 2
        assert engine_payload["state"]["trials"] == rows
        assert len(engine_payload["rng_state"]) == rows
        assert _run("batched", workers, resume_from=tmp_path) == plain

    def test_manifest_records_root_stream(self, tmp_path):
        _run("ensemble", None, checkpoint_every=CHECKPOINT_EVERY, checkpoint_dir=tmp_path / "a")
        _run("ensemble", 1, checkpoint_every=CHECKPOINT_EVERY, checkpoint_dir=tmp_path / "b")
        serial = json.loads((tmp_path / "a" / "manifest.json").read_text())
        sharded = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert serial["schema_version"] == sharded["schema_version"] == 2
        assert serial["root_stream"] is True
        assert sharded["root_stream"] is False

    def test_serial_ensemble_dir_cannot_resume_sharded(self, tmp_path):
        # With <= 8 trials both runs have the shard list [[0, trials)], so
        # only the recorded stream keeps the resume from continuing the
        # other run's state.
        def run(workers, **knobs):
            return run_engine_trials(
                _factory,
                engine="ensemble",
                trials=6,
                seed=SEED,
                parallel_time=PARALLEL_TIME,
                snapshot_every=SNAPSHOT_EVERY,
                workers=workers,
                **knobs,
            )

        with pytest.raises(CheckpointInterrupted):
            run(
                None,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=1,
            )
        with pytest.raises(CheckpointError, match="manifest"):
            run(1, resume_from=tmp_path)

    def test_schema_one_checkpoint_dir_is_rejected(self, tmp_path):
        # A schema-1 directory: no root_stream in the manifest or in the
        # shard workloads.
        with pytest.raises(CheckpointInterrupted):
            _run(
                "ensemble",
                1,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path,
                interrupt_after=1,
            )
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 1
        del manifest["root_stream"]
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        with pytest.raises(CheckpointError, match="manifest"):
            _run("ensemble", 1, resume_from=tmp_path)
        # Even without a manifest, schema-1 shard workloads do not match.
        manifest_path.unlink()
        for shard in tmp_path.glob("shard_*.ckpt"):
            state = read_checkpoint(shard, kind="shard")
            del state["workload"]["root_stream"]
            write_checkpoint(shard, state, kind="shard")
        with pytest.raises(CheckpointError, match="different workload"):
            _run("ensemble", 1, checkpoint_every=CHECKPOINT_EVERY, resume_from=tmp_path)


class TestCheckpointCadenceBudget:
    """Write frequency follows ``checkpoint_every``, not the trial count.

    When trials are shorter than the cadence, the shard skips the
    per-trial completion write until the budget has elapsed — otherwise a
    cheap-trial workload pays one write per trial no matter how sparse a
    cadence the caller asked for.
    """

    @staticmethod
    def _count_writes(monkeypatch):
        import repro.engine.runner as runner_module

        written = []
        real_write = runner_module.write_checkpoint

        def counting_write(path, payload, *, kind):
            written.append((path.name, dict(payload)))
            return real_write(path, payload, kind=kind)

        monkeypatch.setattr(runner_module, "write_checkpoint", counting_write)
        return written

    def test_writes_follow_cadence_across_short_trials(self, tmp_path, monkeypatch):
        written = self._count_writes(monkeypatch)

        def run(**knobs):
            return run_engine_trials(
                _factory,
                engine="sequential",
                trials=6,
                seed=SEED,
                parallel_time=PARALLEL_TIME,
                snapshot_every=SNAPSHOT_EVERY,
                workers=1,
                **knobs,
            )

        series = run(checkpoint_every=2 * PARALLEL_TIME, checkpoint_dir=tmp_path)

        assert len(series) == 6
        # Budget of 2 trials per write: after trials 2 and 4, plus the
        # final done write — not one write per trial.
        assert [state["trial"] for _, state in written] == [2, 4, 6]
        assert [state["done"] for _, state in written] == [False, False, True]

        # The sparse checkpoints resume to the same result.
        assert run(resume_from=tmp_path) == series

    def test_ensemble_writes_each_segment_boundary(self, tmp_path, monkeypatch):
        # Horizon 200 at cadence 50: three mid-run writes plus the done
        # write per shard (16 trials are two shards of 8).
        written = self._count_writes(monkeypatch)
        run_engine_trials(
            _factory,
            engine="ensemble",
            trials=16,
            seed=SEED,
            parallel_time=200,
            snapshot_every=SNAPSHOT_EVERY,
            workers=1,
            checkpoint_every=50,
            checkpoint_dir=tmp_path,
        )
        for shard in ("shard_0-8.ckpt", "shard_8-16.ckpt"):
            done = [state["done"] for name, state in written if name == shard]
            assert done == [False, False, False, True]
        assert len(written) == 8


class TestScenarioCheckpointing:
    @staticmethod
    def _preset():
        from repro.experiments.base import ExperimentPreset

        return ExperimentPreset(
            name="tiny", population_sizes=(200,), parallel_time=40, trials=4, seed=7
        )

    def test_ensemble_scenario_checkpointed_equals_plain(self, tmp_path):
        from repro.engine.options import ExecutionOptions
        from repro.scenarios.runner import run_scenario

        plain = run_scenario(
            "oscillate", preset=self._preset(), options=ExecutionOptions(engine="ensemble")
        )
        checkpointed = run_scenario(
            "oscillate",
            preset=self._preset(),
            options=ExecutionOptions(
                engine="ensemble", checkpoint_every=20, checkpoint_dir=tmp_path
            ),
        )
        assert checkpointed.rows == plain.rows
        assert checkpointed.series == plain.series

    def test_unreadable_point_manifest_fails_resume(self, tmp_path):
        from repro.engine.options import ExecutionOptions
        from repro.scenarios.runner import run_scenario

        with pytest.raises(CheckpointInterrupted):
            run_scenario(
                "oscillate",
                preset=self._preset(),
                options=ExecutionOptions(
                    checkpoint_every=20, checkpoint_dir=tmp_path, interrupt_after=1
                ),
            )
        manifests = sorted(tmp_path.glob("*/manifest.json"))
        assert manifests
        manifests[0].write_text("{ not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            run_scenario(
                "oscillate",
                preset=self._preset(),
                options=ExecutionOptions(resume_from=tmp_path),
            )
