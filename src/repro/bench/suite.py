"""Machine and git provenance stamped on every benchmark report.

``perfbench/workload.py`` imports :func:`machine_metadata` and
:func:`git_metadata` at this path.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["machine_metadata", "git_metadata"]


def machine_metadata() -> dict[str, Any]:
    """Provenance of the machine a benchmark ran on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _git(args: list[str]) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def git_metadata() -> dict[str, Any]:
    """Commit/branch/dirty provenance (all ``None`` outside a checkout)."""
    commit = _git(["rev-parse", "HEAD"])
    branch = _git(["rev-parse", "--abbrev-ref", "HEAD"])
    status = _git(["status", "--porcelain"])
    return {
        "commit": commit,
        "branch": branch,
        "dirty": bool(status) if status is not None else None,
    }
