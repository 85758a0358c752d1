"""Disk-backed, content-addressed result cache with an LRU size cap.

Entries are keyed by :func:`repro.serve.keys.canonical_cache_key` and live
in a two-level directory (``<key[:2]>/<key>/``) holding the real
:meth:`repro.experiments.base.ExperimentResult.save` artifacts (one
``r000/``, ``r001/``, ... sub-directory per result — a scenario run has one,
a sweep one per grid combination) plus an ``entry.json`` manifest.

Concurrency contract
--------------------
Writes are atomic: artifacts are staged into a private temporary directory
and published with a single :func:`os.rename`.  Readers therefore never see
a half-written entry — a directory either is not there (miss) or holds the
complete artifact set.  When two workers finish the same computation
concurrently, one rename wins and the loser silently discards its staging
copy; since both wrote bit-identical artifacts (determinism of the
SeedTree), which one wins is unobservable.

Anything wrong with an entry on read — truncated CSV, missing manifest,
invalid JSON — is treated as a *miss*: the entry is purged so the
computation re-runs and overwrites it.  Corruption is never an exception on
the serving path.

The LRU cap bounds total artifact bytes: every hit touches the entry's
``entry.json`` mtime, and :meth:`ResultCache.put` evicts
least-recently-used entries until the configured budget holds again (the
entry just written always survives).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only import (layering)
    from repro.experiments.base import ExperimentResult

__all__ = ["CacheEntry", "ResultCache"]

#: Bumped when the on-disk entry layout changes; mismatched entries load as
#: misses and are rewritten.
_ENTRY_SCHEMA = 1

_ENTRY_MANIFEST = "entry.json"


@dataclass(frozen=True)
class CacheEntry:
    """One loaded cache entry: its manifest fields plus the results.

    ``results`` preserves submission order: ``[(label, result), ...]`` with
    ``label`` ``None`` for a plain scenario run and the grid label for each
    sweep combination.  It is empty when the entry was verified without
    parsing (:meth:`ResultCache.put`, :meth:`ResultCache.contains`).
    """

    key: str
    kind: str
    labels: tuple[str | None, ...]
    path: Path
    results: tuple[tuple[str | None, "ExperimentResult"], ...]


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _artifact_digests(root: Path) -> dict[str, dict[str, Any]]:
    """Size + SHA-256 per artifact file, keyed by path relative to the entry.

    Recorded in ``entry.json`` at write time and re-verified on every load:
    a truncated or bit-flipped artifact (which might still *parse*) is then
    detected as corruption instead of being served as data.
    """
    digests = {}
    for file in sorted(root.rglob("*")):
        if not file.is_file() or file.name == _ENTRY_MANIFEST:
            continue
        digests[file.relative_to(root).as_posix()] = {
            "bytes": file.stat().st_size,
            "sha256": hashlib.sha256(file.read_bytes()).hexdigest(),
        }
    return digests


class ResultCache:
    """Content-addressed artifact store; see the module docstring."""

    def __init__(self, root: str | Path, *, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        self._staging = self.root / "tmp"
        self._staging.mkdir(exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------- layout

    def _entry_dir(self, key: str) -> Path:
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            raise ValueError(f"cache keys are lowercase hex digests, got {key!r}")
        return self.root / key[:2] / key

    def _entry_dirs(self) -> list[Path]:
        return [
            entry
            for shard in self.root.iterdir()
            if shard.is_dir() and shard.name != self._staging.name
            for entry in shard.iterdir()
            if entry.is_dir()
        ]

    # ------------------------------------------------------------ reading

    def _load(self, key: str, *, parse: bool = True) -> CacheEntry | None:
        """Load an entry without touching counters; corrupt entries are purged.

        ``parse=False`` stops after the manifest and digest checks and
        returns the entry with no ``results``.
        """
        from repro.experiments.base import ExperimentResult

        path = self._entry_dir(key)
        if not path.is_dir():
            return None
        try:
            manifest = json.loads((path / _ENTRY_MANIFEST).read_text())
            if manifest.get("schema") != _ENTRY_SCHEMA or manifest.get("key") != key:
                raise ValueError(f"entry manifest does not match key {key}")
            if _artifact_digests(path) != manifest["files"]:
                raise ValueError(f"artifact checksums do not match for {key}")
            labels = manifest["labels"]
            results = []
            for index, label in enumerate(labels if parse else ()):
                slot = path / f"r{index:03d}"
                # save() nests artifacts under the experiment id; exactly one
                # result directory per slot.
                (result_dir,) = [d for d in slot.iterdir() if d.is_dir()]
                results.append((label, ExperimentResult.load(result_dir)))
        except Exception:
            # Corrupt or half-destroyed entry: purge so the computation
            # re-runs and overwrites it.  Never an exception.
            shutil.rmtree(path, ignore_errors=True)
            return None
        return CacheEntry(
            key=key,
            kind=manifest["kind"],
            labels=tuple(labels),
            path=path,
            results=tuple(results),
        )

    def get(self, key: str) -> CacheEntry | None:
        """Load the entry for ``key``; any defect counts as a miss.

        A readable entry bumps the hit counter and its LRU recency; a
        missing, truncated or otherwise corrupt entry is purged (so the next
        :meth:`put` rewrites it) and ``None`` is returned.
        """
        return self._lookup(key, parse=True)

    def contains(self, key: str) -> bool:
        """Whether ``key`` has an intact entry, checked without parsing it.

        Verifies the manifest and every artifact's size and SHA-256, as
        :meth:`get` does before it parses the artifacts; counts, touches
        and purges exactly like :meth:`get`.
        """
        return self._lookup(key, parse=False) is not None

    def _lookup(self, key: str, *, parse: bool) -> CacheEntry | None:
        entry = self._load(key, parse=parse)
        with self._lock:
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
        if entry is not None:
            self._touch(entry.path)
        return entry

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path / _ENTRY_MANIFEST)
        except OSError:  # pragma: no cover - concurrent purge
            pass

    # ------------------------------------------------------------ writing

    def put(
        self,
        key: str,
        results: Sequence[tuple[str | None, "ExperimentResult"]],
        *,
        kind: str = "scenario",
    ) -> CacheEntry:
        """Persist ``results`` under ``key`` atomically; returns the verified entry.

        The returned entry has no parsed ``results``; :meth:`get` parses them.

        When the entry already exists (a concurrent identical submission won
        the publish race) the freshly staged copy is discarded — determinism
        guarantees both copies hold the same rows, so the existing entry is
        authoritative and stays byte-stable for readers.
        """
        if not results:
            raise ValueError("a cache entry needs at least one result")
        target = self._entry_dir(key)
        stage = Path(tempfile.mkdtemp(prefix=key[:8] + "-", dir=self._staging))
        try:
            for index, (_, result) in enumerate(results):
                result.save(stage / f"r{index:03d}")
            manifest = {
                "schema": _ENTRY_SCHEMA,
                "key": key,
                "kind": kind,
                "labels": [label for label, _ in results],
                "files": _artifact_digests(stage),
            }
            # entry.json is written last within the stage, but publication is
            # the rename below — readers never see the stage at all.
            (stage / _ENTRY_MANIFEST).write_text(
                json.dumps(manifest, indent=2, sort_keys=True)
            )
            target.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(stage, target)
            except OSError:
                if not target.is_dir():
                    raise
                # Lost the publish race to an identical computation.
                shutil.rmtree(stage, ignore_errors=True)
        except Exception:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        self._enforce_budget(keep=target)
        entry = self._load(key, parse=False)
        if entry is None:  # pragma: no cover - only a racing purge
            raise RuntimeError(f"cache entry {key} vanished immediately after put")
        return entry

    def _enforce_budget(self, *, keep: Path) -> None:
        """Evict least-recently-used entries until ``max_bytes`` holds.

        The just-written entry (``keep``) is never evicted, even when it is
        alone over budget — caching the newest result beats caching nothing.
        """
        if self.max_bytes is None:
            return
        with self._lock:
            entries = []
            for path in self._entry_dirs():
                try:
                    mtime = (path / _ENTRY_MANIFEST).stat().st_mtime_ns
                    size = _tree_bytes(path)
                except OSError:
                    continue
                entries.append((mtime, size, path))
            total = sum(size for _, size, _ in entries)
            entries.sort()  # oldest manifest mtime first == least recently used
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                if path == keep:
                    continue
                shutil.rmtree(path, ignore_errors=True)
                total -= size
                self._evictions += 1

    # ---------------------------------------------------------- inspection

    def stats(self) -> dict[str, Any]:
        """Counters and occupancy for ``/healthz`` and the tests."""
        entries = self._entry_dirs()
        with self._lock:
            return {
                "entries": len(entries),
                "bytes": sum(_tree_bytes(path) for path in entries),
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def keys(self) -> list[str]:
        """Keys of all currently stored entries (sorted)."""
        return sorted(path.name for path in self._entry_dirs())
