"""The provenance helpers that perfbench imports from ``repro.bench.suite`` and ``repro.kernels``."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.bench.suite import git_metadata, machine_metadata


def test_machine_metadata_fields():
    meta = machine_metadata()
    assert set(meta) == {"platform", "machine", "python", "numpy", "cpu_count"}


def test_machine_metadata_describes_this_interpreter():
    meta = machine_metadata()
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == np.__version__
    assert meta["cpu_count"] == os.cpu_count()
    # perfbench writes the fields into its JSON report unchanged.
    assert json.loads(json.dumps(meta)) == meta


def test_git_metadata_fields():
    meta = git_metadata()
    assert set(meta) == {"commit", "branch", "dirty"}
    # This test runs inside the repository checkout, so the commit resolves.
    assert meta["commit"] is None or len(meta["commit"]) == 40


def test_git_fields_are_none_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-repository"))
    assert git_metadata() == {"commit": None, "branch": None, "dirty": None}


def test_git_fields_are_none_without_git(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    assert git_metadata() == {"commit": None, "branch": None, "dirty": None}


def test_git_fields_describe_the_checkout(tmp_path, monkeypatch):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path,
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()

    git("init", "-q")
    (tmp_path / "file.txt").write_text("one\n")
    git("add", "file.txt")
    git("commit", "-q", "-m", "one")
    monkeypatch.setenv("GIT_DIR", str(tmp_path / ".git"))
    monkeypatch.setenv("GIT_WORK_TREE", str(tmp_path))
    clean = git_metadata()
    assert clean == {
        "commit": git("rev-parse", "HEAD"),
        "branch": git("rev-parse", "--abbrev-ref", "HEAD"),
        "dirty": False,
    }
    (tmp_path / "file.txt").write_text("two\n")
    assert git_metadata() == dict(clean, dirty=True)


def test_perfbench_provenance_runs_its_lazy_imports():
    # provenance() ends every benchmark run, and it is the only caller of
    # repro.bench.suite and repro.kernels; importing perfbench/workload.py
    # alone never runs its imports.  A fresh interpreter keeps workload's
    # sys.path edits out of this session.
    root = Path(__file__).resolve().parents[1]
    script = (
        "import json, sys; sys.path[:0] = ['perfbench', 'src']; import workload; "
        "print(json.dumps(workload.provenance()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, check=True, capture_output=True, text=True
    )
    provenance = json.loads(done.stdout)
    assert isinstance(provenance["numba_available"], bool)
    assert isinstance(provenance["numba_reason"], str) and provenance["numba_reason"]
    assert set(provenance) >= {"git", "python", "numpy", "usable_cpus", "fastapi_available"}


@pytest.fixture
def fresh_probe(monkeypatch):
    """``repro.kernels`` with its cached import probe cleared."""
    import repro.kernels as kernels

    monkeypatch.setattr(kernels, "_IMPORT_PROBE", None)
    return kernels


def test_numba_probe_matches_importability():
    from repro.kernels import NumbaAvailability, availability

    status = availability()
    assert isinstance(status, NumbaAvailability)
    assert status.enabled is (importlib.util.find_spec("numba") is not None)
    assert status.reason.startswith("numba ")


def test_numba_probe_reports_a_missing_module(fresh_probe, monkeypatch):
    monkeypatch.setitem(sys.modules, "numba", None)  # import raises ImportError
    status = fresh_probe.availability()
    assert status.enabled is False
    assert status.reason.startswith("numba is not importable (ModuleNotFoundError")


def test_numba_probe_reports_a_broken_installation(fresh_probe, monkeypatch):
    class BrokenFinder:
        def find_spec(self, name, path=None, target=None):
            if name == "numba":
                raise RuntimeError("llvmlite mismatch")
            return None

    monkeypatch.delitem(sys.modules, "numba", raising=False)
    monkeypatch.setattr(sys, "meta_path", [BrokenFinder(), *sys.meta_path])
    status = fresh_probe.availability()
    assert status.enabled is False
    assert status.reason == "numba is not importable (RuntimeError: llvmlite mismatch)"


def test_numba_probe_reports_the_installed_version(fresh_probe, monkeypatch):
    monkeypatch.setitem(sys.modules, "numba", types.SimpleNamespace(__version__="9.9"))
    status = fresh_probe.availability()
    assert status == fresh_probe.NumbaAvailability(True, "numba 9.9 available")


def test_numba_probe_is_cached_per_process(fresh_probe, monkeypatch):
    monkeypatch.setitem(sys.modules, "numba", types.SimpleNamespace(__version__="9.9"))
    first = fresh_probe.availability()
    monkeypatch.setitem(sys.modules, "numba", None)
    assert fresh_probe.availability() == first


def test_numba_probe_ignores_the_removed_kill_switch(fresh_probe, monkeypatch):
    # REPRO_DISABLE_JIT went with the compiled backend: the probe reports
    # importability only.
    monkeypatch.setitem(sys.modules, "numba", types.SimpleNamespace(__version__="9.9"))
    monkeypatch.setenv("REPRO_DISABLE_JIT", "1")
    assert fresh_probe.availability().enabled is True
