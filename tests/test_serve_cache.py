"""ResultCache: round-trips, atomicity, LRU eviction, corruption tolerance."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.experiments.base import ExperimentResult
from repro.serve.cache import ResultCache


def hex_key(tag: str) -> str:
    """A syntactically valid 64-hex cache key derived from a short tag."""
    import hashlib

    return hashlib.sha256(tag.encode()).hexdigest()


def tiny_result(tag: str = "one", *, pad: int = 0) -> ExperimentResult:
    rows = [{"n": 80, "value": 2.5, "tag": tag}]
    if pad:
        rows += [{"n": i, "value": float(i), "tag": "x" * 50} for i in range(pad)]
    return ExperimentResult(
        experiment=f"exp_{tag}",
        description=f"tiny result {tag}",
        rows=rows,
        series={"main": {"t": [0.0, 1.0], "v": [1.0, 2.0]}},
        metadata={"preset": "tiny", "engine": "batched"},
    )


class TestRoundTrip:
    def test_put_get_round_trips_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = hex_key("roundtrip")
        cache.put(key, [(None, tiny_result())])
        entry = cache.get(key)
        assert entry is not None
        assert entry.key == key
        assert entry.kind == "scenario"
        assert entry.labels == (None,)
        (label, loaded), = entry.results
        original = tiny_result()
        assert label is None
        assert loaded.experiment == original.experiment
        assert loaded.rows == original.rows
        assert loaded.series == original.series
        assert loaded.metadata == original.metadata

    def test_sweep_entries_preserve_label_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = hex_key("sweep")
        results = [(f"n={i}", tiny_result(f"s{i}")) for i in (32, 64, 128)]
        cache.put(key, results, kind="sweep")
        entry = cache.get(key)
        assert entry.kind == "sweep"
        assert entry.labels == ("n=32", "n=64", "n=128")
        assert [r.experiment for _, r in entry.results] == ["exp_s32", "exp_s64", "exp_s128"]

    def test_unknown_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(hex_key("absent")) is None
        assert cache.stats()["misses"] == 1

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.get("../../etc/passwd")
        with pytest.raises(ValueError):
            cache.put("UPPER", [(None, tiny_result())])

    def test_empty_put_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).put(hex_key("empty"), [])

    def test_staging_area_is_empty_after_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(hex_key("staged"), [(None, tiny_result())])
        assert list((tmp_path / "tmp").iterdir()) == []


class TestCorruption:
    """A defective entry is a miss (re-run and overwrite), never a crash."""

    def put_one(self, tmp_path, tag="corrupt"):
        cache = ResultCache(tmp_path)
        key = hex_key(tag)
        entry = cache.put(key, [(None, tiny_result())])
        return cache, key, entry.path

    def test_truncated_csv_is_a_miss_and_purges(self, tmp_path):
        # A truncated CSV may still *parse* (fewer rows, clean header) — the
        # per-file checksums in entry.json are what catch it.
        cache, key, path = self.put_one(tmp_path)
        csv_path = next(path.rglob("rows.csv"))
        csv_path.write_bytes(csv_path.read_bytes()[:7])
        assert cache.get(key) is None
        assert not path.exists(), "corrupt entry must be purged"
        # Re-running the computation overwrites the slot cleanly.
        cache.put(key, [(None, tiny_result())])
        assert cache.get(key) is not None

    def test_bitflipped_artifact_is_a_miss(self, tmp_path):
        cache, key, path = self.put_one(tmp_path, "bitflip")
        manifest = next(path.rglob("manifest.json"))
        data = bytearray(manifest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        manifest.write_bytes(bytes(data))
        assert cache.get(key) is None

    def test_missing_entry_manifest_is_a_miss(self, tmp_path):
        cache, key, path = self.put_one(tmp_path, "manifestless")
        (path / "entry.json").unlink()
        assert cache.get(key) is None
        assert not path.exists()

    def test_garbage_entry_manifest_is_a_miss(self, tmp_path):
        cache, key, path = self.put_one(tmp_path, "garbage")
        (path / "entry.json").write_text("\x00\x01 not json at all")
        assert cache.get(key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache, key, path = self.put_one(tmp_path, "mismatch")
        manifest = json.loads((path / "entry.json").read_text())
        manifest["key"] = hex_key("other")
        (path / "entry.json").write_text(json.dumps(manifest))
        assert cache.get(key) is None

    def test_missing_result_dir_is_a_miss(self, tmp_path):
        import shutil

        cache, key, path = self.put_one(tmp_path, "slotless")
        shutil.rmtree(path / "r000")
        assert cache.get(key) is None


class TestLru:
    def entry_bytes(self, tmp_path):
        """Size of one padded entry, measured empirically."""
        probe = ResultCache(tmp_path / "probe")
        entry = probe.put(hex_key("probe"), [(None, tiny_result("probe", pad=20))])
        return sum(f.stat().st_size for f in entry.path.rglob("*") if f.is_file())

    def test_eviction_respects_size_cap_and_recency(self, tmp_path):
        size = self.entry_bytes(tmp_path)
        # Three entries fit; the fourth put pushes over budget and must evict.
        cache = ResultCache(tmp_path / "lru", max_bytes=int(size * 3.5))
        keys = [hex_key(f"lru{i}") for i in range(3)]
        for index, key in enumerate(keys):
            cache.put(key, [(None, tiny_result(f"lru{index}", pad=20))])
            # Deterministic, well-separated recency stamps.
            os.utime(
                cache._entry_dir(key) / "entry.json", ns=(10**9 * index, 10**9 * index)
            )
        # Touch the oldest entry so the *middle* one becomes LRU.
        os.utime(cache._entry_dir(keys[0]) / "entry.json", ns=(10**10, 10**10))
        newest = hex_key("lru-new")
        cache.put(newest, [(None, tiny_result("new", pad=20))])
        survivors = set(cache.keys())
        assert newest in survivors
        assert keys[0] in survivors, "recently touched entry must survive"
        assert keys[1] not in survivors, "least recently used entry must be evicted"
        assert cache.stats()["bytes"] <= int(size * 3.5)
        assert cache.stats()["evictions"] >= 1

    def test_newest_entry_survives_even_alone_over_budget(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        key = hex_key("oversize")
        cache.put(key, [(None, tiny_result(pad=20))])
        assert cache.keys() == [key]

    def test_no_cap_means_no_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.put(hex_key(f"nocap{i}"), [(None, tiny_result(f"nc{i}"))])
        assert cache.stats()["entries"] == 4
        assert cache.stats()["evictions"] == 0

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)


class TestConcurrency:
    def test_concurrent_identical_puts_yield_one_clean_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = hex_key("race")
        start = threading.Barrier(8)
        errors = []

        def writer():
            try:
                start.wait()
                cache.put(key, [(None, tiny_result("race"))])
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.keys() == [key]
        entry = cache.get(key)
        assert entry is not None
        assert entry.results[0][1].rows == tiny_result("race").rows
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_concurrent_reads_during_write_never_see_partial_state(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = hex_key("readwrite")
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                entry = cache.get(key)
                if entry is not None:
                    # Whatever we see must be complete and loadable.
                    seen.append(len(entry.results))

        t = threading.Thread(target=reader)
        t.start()
        try:
            cache.put(key, [(None, tiny_result("rw"))])
        finally:
            stop.set()
            t.join()
        assert cache.get(key) is not None
        assert all(count == 1 for count in seen)
