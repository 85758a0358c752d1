"""The provenance helpers that perfbench imports from ``repro.bench.suite``."""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess

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
