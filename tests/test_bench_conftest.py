"""The timing and result helpers of ``benchmarks/conftest.py``.

The asserted-floor benchmarks time with :func:`measure` and write their
cases through the ``suite_cases`` fixture; the fixture is exercised by
running a one-test module under its own pytest process.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_conftest", ROOT / "benchmarks" / "conftest.py"
)
bench_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_conftest)


class TestMeasure:
    @pytest.fixture
    def clock(self, monkeypatch):
        """A fake clock; the ``k``-th call of :meth:`step` takes ``k`` seconds."""
        now = [0.0]
        calls = []

        def step():
            calls.append(now[0])
            now[0] += len(calls)

        monkeypatch.setattr(bench_conftest, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        return SimpleNamespace(step=step, calls=calls)

    def test_warmup_runs_are_not_timed(self, clock):
        samples = bench_conftest.measure(clock.step, warmup=2, repeats=3)
        assert len(clock.calls) == 5
        assert samples == [3.0, 4.0, 5.0]

    def test_defaults_time_one_run_without_warmup(self, clock):
        assert bench_conftest.measure(clock.step) == [1.0]
        assert len(clock.calls) == 1

    def test_samples_are_wall_seconds(self):
        samples = bench_conftest.measure(lambda: time.sleep(0.01), repeats=2)
        assert len(samples) == 2
        assert all(0.01 <= sample < 5.0 for sample in samples)


#: A floor module in miniature: one case, written to BENCH_toy.json.
TOY_MODULE = textwrap.dedent(
    """
    BENCH_SUITE_FILENAME = "BENCH_toy.json"


    def test_toy(suite_cases):
        suite_cases.append({"id": "toy", "seconds": [0.5, 0.25], "extra": {"speedup": 2.0}})
    """
)


def run_module(tmp_path: Path, module: str, **env: str) -> Path:
    """Run ``module`` under a copy of the benchmarks' conftest; the output dir."""
    suite = tmp_path / "suite"
    suite.mkdir()
    shutil.copy2(ROOT / "benchmarks" / "conftest.py", suite / "conftest.py")
    (suite / "pytest.ini").write_text("[pytest]\n")
    (suite / "test_toy.py").write_text(module)
    environment = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_BENCH_")
    }
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(suite)],
        cwd=suite,
        env={**environment, **env},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return tmp_path / "out"


class TestSuiteCases:
    def test_cases_are_written_as_plain_json(self, tmp_path):
        out = run_module(
            tmp_path,
            TOY_MODULE,
            REPRO_BENCH_DIR=str(tmp_path / "out"),
            REPRO_BENCH_EFFORT="default",
        )
        assert json.loads((out / "BENCH_toy.json").read_text()) == {
            "effort": "default",
            "cases": [{"id": "toy", "seconds": [0.5, 0.25], "extra": {"speedup": 2.0}}],
        }

    def test_nothing_is_written_without_the_directory(self, tmp_path):
        out = run_module(tmp_path, TOY_MODULE)
        assert not out.exists()
        assert not list(tmp_path.rglob("BENCH_*.json"))

    def test_a_module_without_a_file_name_writes_nothing(self, tmp_path):
        module = TOY_MODULE.replace('BENCH_SUITE_FILENAME = "BENCH_toy.json"', "")
        out = run_module(tmp_path, module, REPRO_BENCH_DIR=str(tmp_path / "out"))
        assert not out.exists()
