"""Versioned, checksummed on-disk checkpoints for long-horizon runs.

A checkpoint file carries one pickled payload behind a small self-describing
header, so that a resumed run can prove it is reading the artifact it thinks
it is reading before trusting a single byte of state:

``line 1``
    Magic string ``repro-checkpoint`` — rejects arbitrary files early.
``line 2``
    A JSON header with the schema version, a free-form ``kind`` tag
    (``"engine"``, ``"shard"``, ...), the payload length in bytes, and the
    payload's SHA-256 digest.
``rest``
    The pickled payload itself.

Reads verify magic, schema version, length, and digest and raise
:class:`~repro.engine.errors.CheckpointError` on any mismatch — a truncated
or bit-flipped checkpoint fails loudly instead of resuming from wrong
state.  Writes go through a temporary file in the target directory followed
by :func:`os.replace`, so a crash mid-write leaves either the previous
checkpoint or none, never a half-written one.

The payload is pickle rather than JSON because sequential-engine state
includes arbitrary protocol state objects and adversary dataclasses; the
checksum (not the codec) is what guards integrity.  Checkpoints are a
same-machine, same-codebase recovery mechanism — like any pickle, they are
not an interchange format and must only be loaded from trusted paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from repro.engine.errors import CheckpointError

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointInterrupted",
    "atomic_write",
    "write_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_MAGIC = b"repro-checkpoint"
#: v2: the ``batched`` engine became a one-row ensemble.  A v1 file may hold
#: the old engine's 1-D planes or trial series from its random stream, and a
#: shard saved between trials carries no engine state to catch that, so a
#: resume would append new-stream trials to old ones; v1 files are refused.
CHECKPOINT_SCHEMA_VERSION = 2


class CheckpointInterrupted(RuntimeError):
    """Deterministic fault injection: raised after N checkpoint writes.

    Tests and the CI kill-and-resume smoke leg need a run to die at an
    exactly reproducible point.  Passing ``interrupt_after=N`` to the
    checkpointing executor raises this *after* the N-th checkpoint write
    completes — the on-disk state is exactly what a hard kill at that
    moment would have left behind, without the nondeterminism of signals.

    Deliberately **not** a :class:`~repro.engine.errors.CheckpointError`:
    it models the interruption being recovered from, not a damaged
    checkpoint.
    """


def write_checkpoint(path: str | Path, payload: Any, *, kind: str) -> Path:
    """Atomically write ``payload`` as a checkpoint file at ``path``.

    The payload is pickled, wrapped in the magic/header envelope described
    in the module docstring, and moved into place with :func:`os.replace`
    so readers never observe a partial file.  Returns the path written.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable engine state is a caller bug
        raise CheckpointError(f"checkpoint payload is not picklable: {exc}") from exc
    header = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "kind": str(kind),
        "payload_bytes": len(body),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    blob = b"%s\n%s\n%s" % (
        CHECKPOINT_MAGIC,
        json.dumps(header, sort_keys=True).encode("ascii"),
        body,
    )
    atomic_write(target, blob)
    return target


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file and :func:`os.replace`.

    Readers see the previous file or the complete new one, never a partial
    write; the temporary file is removed if the write fails.
    """
    handle, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_checkpoint(path: str | Path, *, kind: str | None = None) -> Any:
    """Read and verify a checkpoint written by :func:`write_checkpoint`.

    Verifies the magic string, schema version, declared payload length and
    SHA-256 digest (and, when ``kind`` is given, the kind tag) before
    unpickling, raising :class:`CheckpointError` on any mismatch.
    """
    target = Path(path)
    try:
        raw = target.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc

    magic, sep, rest = raw.partition(b"\n")
    if not sep or magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{target} is not a repro checkpoint (bad magic)")
    header_line, sep, body = rest.partition(b"\n")
    if not sep:
        raise CheckpointError(f"{target} is truncated (missing header)")
    try:
        header = json.loads(header_line)
    except ValueError as exc:
        raise CheckpointError(f"{target} has a corrupt header: {exc}") from exc
    version = header.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{target} has checkpoint schema version {version!r}; "
            f"this build reads version {CHECKPOINT_SCHEMA_VERSION}"
        )
    if kind is not None and header.get("kind") != kind:
        raise CheckpointError(
            f"{target} is a {header.get('kind')!r} checkpoint, expected {kind!r}"
        )
    declared = header.get("payload_bytes")
    if declared != len(body):
        raise CheckpointError(
            f"{target} is truncated or padded: header declares {declared} "
            f"payload bytes, found {len(body)}"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(f"{target} failed its checksum; refusing to resume")
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(f"{target} payload failed to unpickle: {exc}") from exc
