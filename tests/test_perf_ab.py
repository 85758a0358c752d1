"""``scripts/perf_ab.py``: verdicts, result parsing and the base worktree.

The verdicts run on synthetic run results against the real
``BENCHMARK.json``; the end-to-end tests drive the script over a two-commit
git repository whose ``perfbench/run.py`` is a stand-in that prints a
result line without simulating anything.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perf_ab", ROOT / "scripts" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {metric["name"]: metric for metric in SPEC["end_to_end"]}

#: Ten tight base runs of ``adjusted_wall_s`` (quartile distance ~0.08 s).
TIGHT = [5.0, 5.1, 4.9, 5.05, 4.95, 5.0, 5.02, 4.98, 5.03, 4.97]
#: Ten wide base runs (quartile distance 2.25 s, above 25% of the 5 s median).
WIDE = [3.0, 7.0, 4.0, 6.0, 5.0, 3.5, 6.5, 4.5, 5.5, 5.0]


def result(wall: float, *, failed: int = 0, attempted: int = 12) -> dict:
    values = {"adjusted_wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 50.0}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": METRICS[name]["unit"]} for name in METRICS
        },
    }


def rows_for(base_walls, head_walls, **head_kwargs):
    base = [result(wall) for wall in base_walls]
    head = [result(wall, **head_kwargs) for wall in head_walls]
    return {row["metric"]: row for row in perf_ab.workload_rows(SPEC, base, head)}


class TestVerdicts:
    def test_rows_follow_benchmark_json(self):
        rows = perf_ab.workload_rows(SPEC, [result(5.0)], [result(5.0)])
        names = [metric["name"] for metric in SPEC["end_to_end"]]
        assert [row["metric"] for row in rows] == [*names, "failed operations"]
        assert [row["unit"] for row in rows[:-1]] == [m["unit"] for m in SPEC["end_to_end"]]

    def test_identical_sides_are_no_change(self):
        rows = rows_for(TIGHT, TIGHT)
        assert {row["verdict"] for row in rows.values()} == {"no change"}
        assert perf_ab.exit_status(list(rows.values())) == 0

    def test_thirty_percent_slower_over_tight_base_is_a_regression(self):
        rows = rows_for(TIGHT, [wall * 1.3 for wall in TIGHT])
        wall = rows["adjusted_wall_s"]
        assert wall["verdict"] == "regression"
        assert wall["change"] == pytest.approx(0.3)
        assert wall["wins"] == "0/10"
        assert rows["setup_s"]["verdict"] == "no change"
        assert perf_ab.exit_status(list(rows.values())) == 1

    def test_shift_inside_base_quartile_distance_is_not_a_regression(self):
        # 30% worse (past the 25% bound) but within the base's own spread.
        rows = rows_for(WIDE, [wall * 1.3 for wall in WIDE])
        wall = rows["adjusted_wall_s"]
        assert wall["spread"] == pytest.approx(2.25)
        assert wall["verdict"] == "unresolved"
        assert perf_ab.exit_status(list(rows.values())) == 0

    def test_improvement_with_nine_tenths_of_the_wins_is_a_gain(self):
        rows = rows_for(TIGHT, [wall * 0.7 for wall in TIGHT])
        assert rows["adjusted_wall_s"]["verdict"] == "gain"
        assert rows["adjusted_wall_s"]["wins"] == "10/10"

    def test_improvement_short_of_the_wins_is_no_gain_and_no_regression(self):
        head = [wall * 0.7 for wall in TIGHT]
        head[0], head[1] = TIGHT[0] * 1.05, TIGHT[1] * 1.05
        assert rows_for(TIGHT, head)["adjusted_wall_s"]["verdict"] == "no change"
        # Inside a wide spread an improvement is unresolved, never a regression.
        assert rows_for(WIDE, [w * 0.7 for w in WIDE])["adjusted_wall_s"]["verdict"] == (
            "unresolved"
        )

    def test_higher_is_better_flips_the_direction(self):
        metric = dict(METRICS["adjusted_wall_s"], better="higher")
        assert perf_ab.metric_row(metric, TIGHT, [w * 1.3 for w in TIGHT])["verdict"] == "gain"
        assert perf_ab.metric_row(metric, TIGHT, [w * 0.7 for w in TIGHT])["verdict"] == (
            "regression"
        )

    def test_larger_failed_share_is_a_regression(self):
        rows = rows_for(TIGHT, TIGHT, failed=1)
        failures = rows["failed operations"]
        assert (failures["base"], failures["head"]) == ("0/120", "10/120")
        assert failures["verdict"] == "regression"
        assert perf_ab.exit_status(list(rows.values())) == 1

    def test_fewer_failures_than_base_is_no_regression(self):
        base = [result(5.0, failed=1)]
        rows = perf_ab.workload_rows(SPEC, base, [result(5.0)])
        assert rows[-1]["verdict"] == "no change"

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_the_bound_is_where_a_regression_starts(self, name):
        # Constant base runs: no spread, so only the metric's bound decides.
        metric, base = METRICS[name], [4.0] * 10
        bound = metric["bound"]
        inside = perf_ab.metric_row(metric, base, [4.0 * (1 + bound - 1e-6)] * 10)
        past = perf_ab.metric_row(metric, base, [4.0 * (1 + bound + 1e-6)] * 10)
        assert inside["verdict"] == "no change"
        assert past["verdict"] == "regression"

    def test_exactly_the_bound_is_not_a_regression(self):
        metric = METRICS["adjusted_wall_s"]
        assert metric["bound"] == 0.25
        assert perf_ab.metric_row(metric, [4.0] * 10, [5.0] * 10)["verdict"] == "no change"

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_improvement_past_the_bound_is_a_gain_never_a_regression(self, name):
        metric = METRICS[name]
        head = [value * (1 - 2 * metric["bound"]) for value in TIGHT]
        row = perf_ab.metric_row(metric, TIGHT, head)
        assert row["verdict"] == "gain"
        assert row["change"] == pytest.approx(-2 * metric["bound"])

    def test_ties_count_for_neither_side(self):
        head = [wall * 0.7 for wall in TIGHT]
        head[0], head[1] = TIGHT[0], TIGHT[1]
        row = perf_ab.metric_row(METRICS["adjusted_wall_s"], TIGHT, head)
        assert row["wins"] == "8/10"
        assert row["verdict"] == "no change"
        same = perf_ab.metric_row(METRICS["adjusted_wall_s"], TIGHT, list(TIGHT))
        assert same["wins"] == "0/10"

    def test_nine_of_ten_wins_is_enough_for_a_gain(self):
        head = [wall * 0.7 for wall in TIGHT]
        head[0] = TIGHT[0] * 1.05
        row = perf_ab.metric_row(METRICS["adjusted_wall_s"], TIGHT, head)
        assert (row["wins"], row["verdict"]) == ("9/10", "gain")

    def test_three_pairs_need_all_three_wins_for_a_gain(self):
        base = [5.0, 5.1, 4.9]
        metric = METRICS["adjusted_wall_s"]
        all_three = perf_ab.metric_row(metric, base, [wall * 0.7 for wall in base])
        two = perf_ab.metric_row(metric, base, [base[0] * 0.7, base[1] * 0.7, base[2]])
        assert (all_three["wins"], all_three["verdict"]) == ("3/3", "gain")
        assert (two["wins"], two["verdict"]) == ("2/3", "no change")

    def test_a_gain_needs_a_gap_beyond_the_base_quartile_distance(self):
        # Every pair won, but by less than the base's own spread.
        metric = METRICS["adjusted_wall_s"]
        tight = perf_ab.metric_row(metric, TIGHT, [wall - 0.05 for wall in TIGHT])
        assert (tight["wins"], tight["verdict"]) == ("10/10", "no change")
        wide = perf_ab.metric_row(metric, WIDE, [wall - 0.5 for wall in WIDE])
        assert (wide["wins"], wide["verdict"]) == ("10/10", "unresolved")

    def test_unresolved_only_when_the_spread_exceeds_the_bound(self):
        metric = METRICS["adjusted_wall_s"]
        assert perf_ab.metric_row(metric, WIDE, WIDE)["verdict"] == "unresolved"
        assert perf_ab.metric_row(metric, TIGHT, TIGHT)["verdict"] == "no change"

    def test_one_outlier_pair_does_not_move_the_median(self):
        head = list(TIGHT)
        head[3] = TIGHT[3] * 10
        row = perf_ab.metric_row(METRICS["adjusted_wall_s"], TIGHT, head)
        assert row["head"] == row["base"] == 5.0
        assert row["verdict"] == "no change"

    def test_paired_spread_drops_a_shift_both_runs_of_a_pair_share(self):
        # A constant shift: every pair differs by 0.4 s, so the paired spread
        # is 0 while the base runs keep their 2.25 s quartile distance.
        row = perf_ab.metric_row(METRICS["adjusted_wall_s"], WIDE, [w + 0.4 for w in WIDE])
        assert row["spread"] == pytest.approx(2.25)
        assert row["paired_spread"] == pytest.approx(0.0)
        # Information only: the verdict still reads the unpaired spread.
        assert row["verdict"] == "unresolved"

    def test_paired_spread_is_the_quartile_distance_of_the_differences(self):
        row = perf_ab.metric_row(METRICS["adjusted_wall_s"], TIGHT, [w * 1.3 for w in TIGHT])
        assert row["paired_spread"] == pytest.approx(0.3 * perf_ab.quartile_distance(TIGHT))
        assert row["verdict"] == "regression"

    def test_zero_base_median_reports_no_relative_change(self):
        row = perf_ab.metric_row(METRICS["setup_s"], [0.0, 0.0], [0.0, 0.0])
        assert (row["change"], row["verdict"]) == (0.0, "no change")


class TestQuartileDistance:
    @pytest.mark.parametrize(
        "values, expected",
        [([], 0.0), ([3.0], 0.0), ([5.0, 5.0, 5.0], 0.0), ([1.0, 2.0, 3.0, 4.0, 5.0], 3.0)],
        ids=["empty", "one", "constant", "five"],
    )
    def test_q3_minus_q1(self, values, expected):
        assert perf_ab.quartile_distance(values) == pytest.approx(expected)


class TestFailureRow:
    @pytest.mark.parametrize(
        "base, head, verdict",
        [
            ((0, 10), (0, 10), "no change"),
            ((0, 10), (1, 10), "regression"),
            ((1, 10), (1, 10), "no change"),
            ((1, 10), (0, 10), "no change"),
            ((1, 10), (1, 20), "no change"),
            ((1, 20), (1, 10), "regression"),
            ((0, 0), (0, 0), "no change"),
        ],
        ids=[
            "none",
            "new-failure",
            "same-share",
            "fewer",
            "smaller-share",
            "larger-share",
            "nothing-attempted",
        ],
    )
    def test_shares_are_compared_not_counts(self, base, head, verdict):
        def run(failed, attempted):
            return {"failed": failed, "attempted": attempted}

        row = perf_ab.failure_row([run(*base)], [run(*head)])
        assert row["base"] == f"{base[0]}/{base[1]}"
        assert row["head"] == f"{head[0]}/{head[1]}"
        assert row["verdict"] == verdict

    def test_shares_sum_over_every_run_of_a_side(self):
        base = [{"failed": 0, "attempted": 5}, {"failed": 1, "attempted": 5}]
        head = [{"failed": 1, "attempted": 6}, {"failed": 1, "attempted": 6}]
        row = perf_ab.failure_row(base, head)
        assert (row["base"], row["head"], row["verdict"]) == ("1/10", "2/12", "regression")


class TestMarkdown:
    def table(self, base_walls, head_walls, **head_kwargs):
        rows = perf_ab.workload_rows(
            SPEC,
            [result(wall) for wall in base_walls],
            [result(wall, **head_kwargs) for wall in head_walls],
        )
        return perf_ab.markdown([("per_agent", row) for row in rows]).splitlines()

    def test_has_one_line_per_row(self):
        lines = self.table([5.0], [5.0])
        assert len(lines) == 2 + len(SPEC["end_to_end"]) + 1
        assert lines[2].startswith("| per_agent | adjusted_wall_s (s) | 5 | 5 | +0.0% |")

    def test_header_names_every_column(self):
        header, rule = self.table([5.0], [5.0])[:2]
        columns = [cell.strip() for cell in header.strip("|").split("|")]
        assert columns == [
            "workload",
            "metric",
            "base",
            "head",
            "change",
            "head wins",
            "base Q3-Q1",
            "paired Q3-Q1",
            "verdict",
        ]
        assert rule == "|" + "---|" * len(columns)

    def test_failure_row_has_no_unit_change_or_spread(self):
        last = self.table([5.0], [5.0], failed=1)[-1]
        assert last == (
            "| per_agent | failed operations | 0/12 | 1/12 |  |  |  |  | regression |"
        )

    def test_numbers_keep_four_significant_digits(self):
        lines = self.table([1234.5678, 1234.5678], [0.000123456, 0.000123456])
        cells = [cell.strip() for cell in lines[2].strip("|").split("|")]
        assert cells[2:6] == ["1235", "0.0001235", "-100.0%", "2/2"]
        assert cells[6:8] == ["0", "0"]
        assert cells[8] == "gain"


class TestExitStatus:
    @pytest.mark.parametrize(
        "verdicts, status",
        [
            ([], 0),
            (["no change"], 0),
            (["gain"], 0),
            (["unresolved"], 0),
            (["regression"], 1),
            (["gain", "no change", "regression", "unresolved"], 1),
        ],
        ids=["empty", "no-change", "gain", "unresolved", "regression", "mixed"],
    )
    def test_only_a_regression_fails(self, verdicts, status):
        assert perf_ab.exit_status([{"verdict": verdict} for verdict in verdicts]) == status


class TestParseResult:
    @pytest.mark.parametrize("stdout", ["", "\n", "perfbench: failed\n", "[1, 2]\n"])
    def test_no_result_line_is_a_run_error(self, stdout):
        with pytest.raises(perf_ab.RunError, match="no result line"):
            perf_ab.parse_result(stdout)

    def test_last_line_is_the_result(self):
        line = json.dumps(result(5.0))
        assert perf_ab.parse_result(f'{{"details": {{}}}}\n{line}\n') == result(5.0)

    @pytest.mark.parametrize("key", ["metrics", "attempted", "failed"])
    def test_a_line_without_a_result_key_is_a_run_error(self, key):
        line = {name: value for name, value in result(5.0).items() if name != key}
        with pytest.raises(perf_ab.RunError, match="no result line"):
            perf_ab.parse_result(json.dumps(line) + "\n")

    def test_trailing_blank_lines_are_ignored(self):
        assert perf_ab.parse_result(json.dumps(result(5.0)) + "\n\n  \n") == result(5.0)


class TestRunOnce:
    def tree(self, tmp_path, script: str) -> Path:
        tree = tmp_path / "tree"
        write(tree, {"perfbench/run.py": script})
        return tree

    def test_passes_workload_seed_seconds_and_no_trace_from_the_tree(self, tmp_path):
        tree = self.tree(
            tmp_path,
            "import json, os, sys\n"
            "print(json.dumps({'metrics': {}, 'attempted': 0, 'failed': 0,"
            " 'argv': sys.argv[1:], 'cwd': os.getcwd()}))\n",
        )
        line = perf_ab.run_once(tree, "per_agent", 3, 2.5)
        assert line["argv"] == [
            "--workload", "per_agent", "--seed", "3", "--seconds", "2.5", "--trace", "0"
        ]
        assert Path(line["cwd"]) == tree.resolve()

    def test_nonzero_exit_is_a_run_error_with_the_stderr_tail(self, tmp_path):
        tree = self.tree(
            tmp_path,
            "import sys\nprint('{}')\nprint('workload exploded', file=sys.stderr)\nsys.exit(3)\n",
        )
        with pytest.raises(perf_ab.RunError, match="exited with code 3: workload exploded"):
            perf_ab.run_once(tree, "per_agent", 1, 1.0)


class TestOptions:
    def test_base_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            perf_ab.main([])
        assert exit_info.value.code == 2
        assert "--base" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--pairs", "0"], ["--seconds", "0"], ["--seconds", "-1"], ["--workloads", ","]],
        ids=["no-pairs", "zero-seconds", "negative-seconds", "no-workload"],
    )
    def test_empty_runs_are_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            perf_ab.main(["--base", "HEAD", *argv])
        assert exit_info.value.code == 2
        assert "needs a workload" in capsys.readouterr().err

    def test_script_stands_alone_with_exactly_four_options(self, tmp_path):
        # No PYTHONPATH and a foreign working directory: the driver needs
        # nothing but the interpreter and its own checkout.
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "perf_ab.py"), "--help"],
            cwd=tmp_path,
            env={"PATH": os.environ.get("PATH", "")},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        options = set(re.findall(r"(?<![\w-])--[a-z]+", done.stdout))
        assert options == {"--help", "--base", "--workloads", "--pairs", "--seconds"}

    def test_driver_imports_only_the_standard_library(self):
        tree = ast.parse((ROOT / "scripts" / "perf_ab.py").read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module.partition(".")[0])
        assert "repro" not in modules
        assert modules <= set(sys.stdlib_module_names)


#: Stand-in for perfbench/run.py: prints one result line whose values are
#: read from its own tree's ``src/speed.txt``.
FAKE_RUN = textwrap.dedent(
    """
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    value = float((root / "src" / "speed.txt").read_text())
    metrics = {name: {"value": value, "unit": "s"} for name in NAMES}
    print(json.dumps({"details": {}}))
    print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}))
    """
).replace("NAMES", repr(sorted(METRICS)))

#: A run.py that exits 0 without printing a result line.
SILENT_RUN = "print('starting')\n"


def logging_run(log: Path, *, failed: str = "0", before: str = "pass") -> str:
    """A stand-in run.py that appends its call to ``log`` and prints a result line.

    ``failed`` is an expression and ``before`` a statement over ``value``, the
    number in the run's own ``src/speed.txt``; ``before`` runs just before
    the result line is printed.
    """
    return textwrap.dedent(
        f"""
        import json
        import os
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        value = float((root / "src" / "speed.txt").read_text())
        call = {{"value": value, "argv": sys.argv[1:], "cwd": os.getcwd()}}
        with open({str(log)!r}, "a") as log:
            print(json.dumps(call), file=log)
        {before}
        metrics = {{name: {{"value": value, "unit": "s"}} for name in {sorted(METRICS)!r}}}
        result = {{"correct": True, "attempted": 4, "failed": {failed}, "metrics": metrics}}
        print(json.dumps(result))
        """
    )


def calls(log: Path) -> list[dict]:
    return [json.loads(line) for line in log.read_text().splitlines()]


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo,
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def write(repo: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = repo / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """Base commit: old benchmark definition, speed 1.0.  Head: new ones, speed 1.3."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    benchmark = dict(SPEC, workloads=[{"name": "toy", "why": "test"}])
    write(
        repo,
        {
            "perfbench/run.py": SILENT_RUN,
            "BENCHMARK.json": json.dumps(dict(benchmark, run_seconds=99)),
            "src/speed.txt": "1.0",
        },
    )
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    write(
        repo,
        {
            "perfbench/run.py": FAKE_RUN,
            "BENCHMARK.json": json.dumps(benchmark),
            "src/speed.txt": "1.3",
        },
    )
    git(repo, "commit", "-q", "-am", "head")
    monkeypatch.setattr(perf_ab, "HEAD", repo)
    return repo


def worktrees(repo: Path) -> int:
    return git(repo, "worktree", "list", "--porcelain").count("worktree ")


class TestBaseCheckout:
    def test_base_runs_its_own_source_under_head_benchmark(self, repo):
        with perf_ab.base_checkout(repo, "HEAD~1") as tree:
            assert (tree / "perfbench" / "run.py").read_text() == FAKE_RUN
            assert (tree / "BENCHMARK.json").read_text() == (repo / "BENCHMARK.json").read_text()
            assert (tree / "src" / "speed.txt").read_text() == "1.0"
            assert worktrees(repo) == 2
        assert not tree.exists()
        assert worktrees(repo) == 1

    def test_worktree_removed_when_the_block_raises(self, repo):
        with pytest.raises(RuntimeError):
            with perf_ab.base_checkout(repo, "HEAD~1") as tree:
                raise RuntimeError("interrupted")
        assert not tree.exists()
        assert worktrees(repo) == 1

    def test_base_tree_is_a_detached_checkout_of_the_revision(self, repo):
        with perf_ab.base_checkout(repo, "HEAD~1") as tree:
            assert git(tree, "rev-parse", "HEAD") == git(repo, "rev-parse", "HEAD~1")
            assert git(tree, "rev-parse", "--abbrev-ref", "HEAD").strip() == "HEAD"
        assert git(repo, "rev-parse", "--abbrev-ref", "HEAD").strip() != "HEAD"

    def test_base_benchmark_files_are_replaced_not_merged(self, repo):
        # The revision's perfbench/ has a file that head's working tree lacks.
        write(repo, {"perfbench/old_only.py": "x = 1\n"})
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", "old benchmark file")
        (repo / "perfbench" / "old_only.py").unlink()
        with perf_ab.base_checkout(repo, "HEAD") as tree:
            assert (tree / "src" / "speed.txt").exists()
            assert not (tree / "perfbench" / "old_only.py").exists()
            assert sorted(p.name for p in (tree / "perfbench").iterdir()) == ["run.py"]

    def test_bytecode_caches_are_not_copied(self, repo):
        write(repo, {"perfbench/__pycache__/run.cpython-311.pyc": "stale"})
        with perf_ab.base_checkout(repo, "HEAD~1") as tree:
            assert not (tree / "perfbench" / "__pycache__").exists()

    def test_failed_checkout_leaves_no_temporary_directory(self, repo, monkeypatch):
        made = []
        mkdtemp = perf_ab.tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            made.append(Path(mkdtemp(*args, **kwargs)))
            return str(made[-1])

        monkeypatch.setattr(perf_ab.tempfile, "mkdtemp", recording_mkdtemp)
        with pytest.raises(subprocess.CalledProcessError):
            with perf_ab.base_checkout(repo, "no-such-revision"):
                pass
        assert len(made) == 1 and not made[0].exists()
        assert worktrees(repo) == 1


class TestMain:
    def test_slower_head_fails_the_gate(self, repo, capsys):
        assert perf_ab.main(["--base", "HEAD~1", "--pairs", "2", "--seconds", "1"]) == 1
        out = capsys.readouterr().out
        assert "| toy | adjusted_wall_s (s) | 1 | 1.3 | +30.0% | 0/2 |" in out
        assert worktrees(repo) == 1

    def test_pairs_alternate_which_side_runs_first(self, repo, tmp_path, capsys):
        log = tmp_path / "calls.jsonl"
        write(repo, {"perfbench/run.py": logging_run(log)})
        assert perf_ab.main(["--base", "HEAD~1", "--pairs", "4", "--seconds", "1"]) == 1
        made = calls(log)
        sides = ["base" if call["value"] == 1.0 else "head" for call in made]
        assert sides == ["base", "head", "head", "base", "base", "head", "head", "base"]
        # Both runs of a pair use the pair's seed, each in its own tree.
        seeds = [call["argv"][call["argv"].index("--seed") + 1] for call in made]
        assert seeds == ["1", "1", "2", "2", "3", "3", "4", "4"]
        for side, call in zip(sides, made):
            assert call["argv"][-2:] == ["--trace", "0"]
            assert (Path(call["cwd"]) == repo.resolve()) == (side == "head")
        progress = capsys.readouterr().err.splitlines()
        assert progress[0].startswith("pair 1/4 toy base: adjusted_wall_s=1 ")
        assert progress[1].endswith("failed=0/4")

    def test_defaults_come_from_benchmark_json(self, repo, tmp_path):
        log = tmp_path / "calls.jsonl"
        benchmark = dict(
            SPEC,
            workloads=[{"name": "toy", "why": "test"}, {"name": "other", "why": "test"}],
            run_seconds=7,
        )
        write(
            repo,
            {
                "perfbench/run.py": logging_run(log),
                "BENCHMARK.json": json.dumps(benchmark),
                "src/speed.txt": "1.0",
            },
        )
        assert perf_ab.main(["--base", "HEAD~1"]) == 0
        made = calls(log)
        assert len(made) == 10 * 2 * 2
        assert {tuple(call["argv"][4:6]) for call in made} == {("--seconds", "7")}
        workloads = [call["argv"][1] for call in made]
        assert workloads == ["toy", "toy", "other", "other"] * 10

    def test_only_the_named_workloads_run(self, repo, tmp_path, capsys):
        log = tmp_path / "calls.jsonl"
        benchmark = dict(
            SPEC, workloads=[{"name": "toy", "why": "test"}, {"name": "other", "why": "test"}]
        )
        write(
            repo,
            {"perfbench/run.py": logging_run(log), "BENCHMARK.json": json.dumps(benchmark)},
        )
        argv = ["--base", "HEAD~1", "--workloads", "other", "--pairs", "1", "--seconds", "1"]
        assert perf_ab.main(argv) == 1
        assert {call["argv"][1] for call in calls(log)} == {"other"}
        assert "| toy |" not in capsys.readouterr().out

    def test_faster_head_reports_a_gain_and_passes(self, repo, capsys):
        write(repo, {"src/speed.txt": "0.7"})
        assert perf_ab.main(["--base", "HEAD~1", "--pairs", "2", "--seconds", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "Base `HEAD~1` against the working tree: 2 alternating pairs of 1-second runs.\n"
        )
        assert "| toy | adjusted_wall_s (s) | 1 | 0.7 | -30.0% | 2/2 | 0 | 0 | gain |" in out

    def test_identical_head_is_no_change_and_passes(self, repo, capsys):
        write(repo, {"src/speed.txt": "1.0"})
        assert perf_ab.main(["--base", "HEAD~1", "--pairs", "2", "--seconds", "1"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("| toy")]
        assert len(rows) == len(SPEC["end_to_end"]) + 1
        assert all(row.endswith("| no change |") for row in rows)

    def test_a_failed_operation_on_head_fails_the_gate(self, repo, tmp_path, capsys):
        log = tmp_path / "calls.jsonl"
        write(
            repo,
            {
                "perfbench/run.py": logging_run(log, failed="int(value > 1.0)"),
                "src/speed.txt": "1.0001",
            },
        )
        assert perf_ab.main(["--base", "HEAD~1", "--pairs", "2", "--seconds", "1"]) == 1
        out = capsys.readouterr().out
        # The timings agree; the failed operations alone fail the gate.
        assert "| toy | adjusted_wall_s (s) | 1 | 1 | +0.0% | 0/2 | 0 | 0 | no change |" in out
        assert "| toy | failed operations | 0/8 | 2/8 |  |  |  |  | regression |" in out

    def test_a_crashed_head_run_exits_2_naming_the_run(self, repo, tmp_path, capsys):
        log = tmp_path / "calls.jsonl"
        write(
            repo,
            {"perfbench/run.py": logging_run(log, before="sys.exit(1) if value > 1.2 else None")},
        )
        assert perf_ab.main(["--base", "HEAD~1", "--pairs", "2", "--seconds", "1"]) == 2
        captured = capsys.readouterr()
        assert "perf_ab: head toy seed 1: exited with code 1" in captured.err
        assert captured.out == ""
        # The base ran first in pair 1; nothing ran after the crash.
        assert [call["value"] for call in calls(log)] == [1.0, 1.3]
        assert worktrees(repo) == 1

    def test_run_without_result_line_exits_2(self, repo, capsys):
        write(repo, {"perfbench/run.py": SILENT_RUN})
        assert perf_ab.main(["--base", "HEAD~1", "--pairs", "1"]) == 2
        captured = capsys.readouterr()
        assert "no result line" in captured.err
        assert "| toy |" not in captured.out
        assert worktrees(repo) == 1

    def test_unknown_base_revision_exits_2(self, repo, capsys):
        assert perf_ab.main(["--base", "no-such-revision", "--pairs", "1"]) == 2
        assert "worktree add" in capsys.readouterr().err
        assert worktrees(repo) == 1

    def test_unknown_workload_is_a_usage_error(self, repo):
        with pytest.raises(SystemExit) as exit_info:
            perf_ab.main(["--base", "HEAD~1", "--workloads", "nope"])
        assert exit_info.value.code == 2
