"""Tests for the experiment harness (presets, scenarios, CLI, persistence).

The experiment tests use tiny custom presets so that the whole module runs
in seconds; the ``quick`` presets themselves are exercised by the benchmark
suite.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.engine.errors import ConfigurationError
from repro.engine.options import ExecutionOptions
from repro.engine.registry import engine_names, validate_engine_request
from repro.experiments.base import ExperimentPreset, ExperimentResult
from repro.experiments.cli import main
from repro.experiments.config import PRESETS, list_presets
from repro.experiments.convergence_table import trace_to_snapshots
from repro.experiments.fig4_population_drop import adaptation_time
from repro.experiments.fig5_initial_estimate import forgetting_time
from repro.experiments.figures import run_estimate_trace
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import resolve_preset, run_scenario

#: The paper's figures and tables, one registered scenario each.
PAPER_SCENARIOS = (
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "convergence",
    "holding",
    "memory",
    "phase_clock",
    "baseline",
)


def tiny(**extra) -> ExperimentPreset:
    return ExperimentPreset(
        name="tiny",
        population_sizes=(200,),
        parallel_time=150,
        trials=2,
        seed=7,
        extra=extra,
    )


class TestPresets:
    def test_every_experiment_has_three_effort_levels(self):
        for experiment, levels in PRESETS.items():
            assert set(levels) == {"quick", "default", "paper"}, experiment

    def test_resolve_preset_errors(self):
        with pytest.raises(ConfigurationError, match="has no 'gigantic' preset"):
            resolve_preset(get_scenario("fig2"), "gigantic")
        unpreset = dataclasses.replace(get_scenario("fig3"), name="nonexistent")
        with pytest.raises(ConfigurationError, match="has no presets registered"):
            resolve_preset(unpreset, "quick")

    def test_list_presets(self):
        listing = list_presets()
        assert "fig4" in listing
        assert listing["fig4"] == ["default", "paper", "quick"]

    def test_paper_presets_match_paper_parameters(self):
        fig4 = resolve_preset(get_scenario("fig4"), "paper")
        assert fig4.extra["drop_time"] == 1350
        assert fig4.extra["keep"] == 500
        assert fig4.parallel_time == 5000
        assert fig4.trials == 96
        assert 1_000_000 in resolve_preset(get_scenario("fig2"), "paper").population_sizes

    def test_with_overrides(self):
        preset = PRESETS["fig2"]["quick"].with_overrides(trials=1, extra={"foo": 1})
        assert preset.trials == 1
        assert preset.extra["foo"] == 1


class TestEstimateTrace:
    def test_run_estimate_trace_structure(self):
        trace = run_estimate_trace(300, 60, trials=2, seed=3)
        assert len(trace.parallel_time) == 60
        assert len(trace.minimum) == len(trace.maximum) == 60
        assert all(lo <= hi for lo, hi in zip(trace.minimum, trace.maximum))

    def test_run_estimate_trace_with_resize(self):
        trace = run_estimate_trace(300, 60, trials=1, seed=3, resize_schedule=[(20, 50)])
        assert trace.population_size[10] == 300
        assert trace.population_size[-1] == 50

    def test_run_estimate_trace_with_initial_estimate(self):
        trace = run_estimate_trace(100, 10, trials=1, seed=3, initial_estimate=60.0)
        assert trace.maximum[0] == 60.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_estimate_trace(100, 10, trials=0, seed=3)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            run_estimate_trace(
                100, 10, trials=1, seed=3, options=ExecutionOptions(engine="warp")
            )

    @pytest.mark.parametrize("engine", ("sequential",))
    def test_exact_engines_support_workload_knobs(self, engine):
        options = ExecutionOptions(engine=engine)
        trace = run_estimate_trace(
            100, 30, trials=1, seed=4, options=options, resize_schedule=[(10, 40)]
        )
        assert trace.population_size[-1] == 40
        trace = run_estimate_trace(
            80, 10, trials=1, seed=4, options=options, initial_estimate=60.0
        )
        assert trace.maximum[0] == 60.0


    def test_sub_batches_is_refused_on_the_exact_engine(self):
        sequential = ExecutionOptions(engine="sequential")
        with pytest.raises(ConfigurationError, match="sub_batches"):
            run_estimate_trace(50, 5, trials=1, seed=4, options=sequential, sub_batches=3)

    def test_unset_sub_batches_is_the_approximate_default(self):
        batched = ExecutionOptions(engine="batched")
        unset = run_estimate_trace(200, 20, trials=2, seed=4, options=batched)
        explicit = run_estimate_trace(200, 20, trials=2, seed=4, options=batched, sub_batches=8)
        assert unset.series() == explicit.series()


class TestFigureRunners:
    def test_fig2_rows_and_series(self):
        result = run_scenario("fig2", preset=tiny())
        assert result.experiment == "fig2"
        assert len(result.rows) == 1
        assert "n_200" in result.series
        row = result.rows[0]
        assert row["log2_n"] == pytest.approx(math.log2(200))
        assert row["steady_median"] >= 0.5 * row["log2_n"]

    def test_fig3_relative_deviation_positive(self):
        result = run_scenario("fig3", preset=tiny())
        row = result.rows[0]
        assert row["relative_median"] >= 0.5
        assert row["relative_minimum"] <= row["relative_maximum"]

    def test_fig4_detects_adaptation(self):
        result = run_scenario("fig4", preset=tiny(drop_time=40, keep=20))
        row = result.rows[0]
        assert row["keep"] == 20
        assert row["median_before_drop"] > 0

    def test_fig5_tracks_initial_estimate(self):
        result = run_scenario("fig5", preset=tiny(initial_estimate=30.0))
        row = result.rows[0]
        assert row["initial_estimate"] == 30.0

    def test_adaptation_time_midpoint_rule(self):
        times = [0.0, 10.0, 20.0, 30.0]
        medians = [16.0, 16.0, 12.0, 10.0]
        assert adaptation_time(times, medians, 5.0, pre_drop_level=16.0, target_level=10.0) == 20.0
        assert adaptation_time(times, medians, 5.0, pre_drop_level=9.0, target_level=10.0) == 5.0
        assert (
            adaptation_time(times, [16.0] * 4, 5.0, pre_drop_level=16.0, target_level=10.0) is None
        )

    def test_forgetting_time(self):
        assert forgetting_time([0, 1, 2], [60, 60, 12], 60) == 2
        assert forgetting_time([0, 1], [60, 60], 60) is None


class TestTableRunners:
    def test_convergence_table(self):
        result = run_scenario("convergence", preset=tiny(initial_estimates=(1.0,)))
        assert len(result.rows) == 1
        assert result.rows[0]["converged"]

    def test_trace_to_snapshots(self):
        trace = run_estimate_trace(100, 5, trials=1, seed=1)
        snapshots = trace_to_snapshots(trace)
        assert len(snapshots) == 5
        assert snapshots[0].population_size == 100

    def test_memory_table_shows_baseline_overhead(self):
        preset = ExperimentPreset(
            name="tiny", population_sizes=(80,), parallel_time=60, trials=1, seed=5
        )
        result = run_scenario("memory", preset=preset)
        row = result.rows[0]
        assert row["doty_eftekhari_steady_bits"] > row["ours_steady_bits"]

    def test_phase_clock_experiment(self):
        preset = ExperimentPreset(
            name="tiny", population_sizes=(60,), parallel_time=900, trials=1, seed=5
        )
        result = run_scenario("phase_clock", preset=preset)
        row = result.rows[0]
        assert row["mean_period_interactions"] > 0

    def test_baseline_comparison_distinguishes_static(self):
        preset = ExperimentPreset(
            name="tiny",
            population_sizes=(150,),
            parallel_time=600,
            trials=1,
            seed=5,
            extra={"drop_time": 100, "keep": 20},
        )
        result = run_scenario("baseline", preset=preset)
        by_protocol = {row["protocol"]: row for row in result.rows}
        assert by_protocol["dynamic-size-counting (ours)"]["adapted_to_drop"]
        assert not by_protocol["static-max-grv"]["adapted_to_drop"]


class TestResultPersistenceAndCli:
    def test_save_writes_csv_and_manifest(self, tmp_path):
        result = run_scenario("fig2", preset=tiny())
        out = result.save(tmp_path)
        assert (out / "rows.csv").exists()
        assert (out / "manifest.json").exists()
        assert any(path.name.startswith("series_") for path in out.iterdir())

    def test_result_table_renders(self):
        result = ExperimentResult(
            experiment="demo", description="d", rows=[{"a": 1.0, "b": 2}]
        )
        assert "demo" in result.table()

    def test_cli_list(self, capsys):
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "fig2" in captured.out

    def test_cli_runner_registry_complete(self):
        from repro.scenarios import scenario_names

        # Every registered scenario has presets, and the nine paper
        # experiments are a subset of the registry.
        assert set(scenario_names()) == set(PRESETS)
        assert set(PAPER_SCENARIOS) < set(scenario_names())

    def test_save_load_round_trip(self, tmp_path):
        result = run_scenario("fig2", preset=tiny())
        saved = result.save(tmp_path)
        loaded = ExperimentResult.load(saved)
        assert loaded.rows == result.rows
        assert loaded.experiment == result.experiment
        assert loaded.description == result.description
        assert set(loaded.series) == set(result.series)
        # Saving the loaded result regenerates an identical manifest.
        second = loaded.save(tmp_path / "again")
        assert (second / "manifest.json").read_text() == (
            saved / "manifest.json"
        ).read_text()


class TestEngineSelectors:
    def test_every_paper_scenario_takes_an_engine_through_options(self):
        """Every paper scenario takes ``ExecutionOptions(engine=...)`` for its engines."""
        for name in PAPER_SCENARIOS:
            spec = get_scenario(name)
            for engine in engine_names():
                if engine in spec.engines:
                    validate_engine_request(engine, spec)
                else:
                    with pytest.raises(ConfigurationError, match="supports engine"):
                        validate_engine_request(engine, spec)

    def test_fig2_engine_metadata_and_agreement(self):
        preset = ExperimentPreset(
            name="tiny", population_sizes=(60,), parallel_time=40, trials=2, seed=9
        )
        sequential = run_scenario(
            "fig2", preset=preset, options=ExecutionOptions(engine="sequential")
        )
        assert sequential.metadata["engine"] == "sequential"

    def test_sequential_only_experiments_reject_other_engines(self):
        for name in ("memory", "phase_clock", "baseline"):
            with pytest.raises(ConfigurationError):
                run_scenario(name, preset=tiny(), options=ExecutionOptions(engine="batched"))

    def test_cli_all_skips_unsupported_engine_combinations(self, capsys, monkeypatch):
        """`all --engine batched` runs the supporting experiments and skips the rest."""
        tiny_preset = ExperimentPreset(
            name="quick", population_sizes=(50,), parallel_time=15, trials=1, seed=1
        )
        for experiment in PRESETS:
            monkeypatch.setitem(PRESETS, experiment, {"quick": tiny_preset})
        assert main(["run", "all", "--effort", "quick", "--engine", "batched"]) == 0
        captured = capsys.readouterr()
        assert "[baseline] skipped:" in captured.out
        assert "[memory] skipped:" in captured.out
        assert "[phase_clock] skipped:" in captured.out
        assert "[fig2] completed" in captured.out

    def test_cli_all_without_engine_flag_propagates_errors(self, capsys, monkeypatch):
        """Without --engine, a ConfigurationError in `all` mode is fatal, not a skip."""
        import repro.experiments.cli as cli_module

        def broken(*args, **kwargs):
            raise ConfigurationError("boom")

        monkeypatch.setattr(cli_module, "run_scenario", broken)
        assert main(["run", "all", "--effort", "quick"]) == 2
        captured = capsys.readouterr()
        assert "boom" in captured.err
        assert "skipped" not in captured.out

    def test_cli_single_experiment_engine_mismatch_is_an_error(self, capsys, monkeypatch):
        tiny_preset = ExperimentPreset(
            name="quick", population_sizes=(50,), parallel_time=15, trials=1, seed=1
        )
        monkeypatch.setitem(PRESETS, "memory", {"quick": tiny_preset})
        assert main(["run", "memory", "--effort", "quick", "--engine", "batched"]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err

    def test_cli_engine_mismatch_is_the_shared_engine_check(self, capsys, monkeypatch):
        """`run` fails and `run all` skips with ``validate_engine_request``'s message."""
        import repro.experiments.cli as cli_module

        with pytest.raises(ConfigurationError) as excinfo:
            validate_engine_request("batched", get_scenario("memory"))
        message = str(excinfo.value)
        assert message == "scenario 'memory' supports engine(s) sequential, got 'batched'"
        assert main(["run", "memory", "--effort", "quick", "--engine", "batched"]) == 2
        assert capsys.readouterr().err == f"repro-experiments: error: {message}\n"

        ran = []

        def fake_run(name, *, effort, options):
            ran.append(name)
            return ExperimentResult(
                experiment=name, description="fake", rows=[{"n": 1}], metadata={}
            )

        monkeypatch.setattr(cli_module, "run_scenario", fake_run)
        assert main(["run", "all", "--effort", "quick", "--engine", "batched"]) == 0
        assert f"[memory] skipped: {message}\n" in capsys.readouterr().out
        assert "memory" not in ran
        assert "fig2" in ran

    @pytest.mark.parametrize("name", ["memory", "phase_clock", "baseline"])
    def test_cli_one_combination_sweep_of_a_bespoke_scenario_rejects_workers(
        self, name, capsys, monkeypatch
    ):
        import repro.scenarios.runner as runner

        def must_not_run(*args, **kwargs):
            raise AssertionError("a rejected sweep must not start")

        monkeypatch.setattr(runner, "run_scenario", must_not_run)
        args = ["sweep", name, "--effort", "quick", "--set", "trials=1", "--workers", "2"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"scenario {name!r} runs serially on its own executor" in err
        assert err.rstrip().endswith("cannot honour workers")

    def test_cli_bespoke_executor_rejects_workers(self, capsys, monkeypatch):
        import repro.experiments.cli as cli_module

        def must_not_run(*args, **kwargs):
            raise AssertionError("a rejected run must not start")

        monkeypatch.setattr(cli_module, "run_scenario", must_not_run)
        assert main(["run", "memory", "--effort", "quick", "--workers", "2"]) == 2
        captured = capsys.readouterr()
        assert "cannot honour workers" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, setting",
        [
            (["--checkpoint-every", "5", "--checkpoint-dir", "DIR"], "checkpoint_every"),
            (["--checkpoint-dir", "DIR"], "checkpoint_dir"),
            (["--resume-from", "DIR"], "resume_from"),
            (["--checkpoint-dir", "DIR", "--interrupt-after", "1"], "interrupt_after"),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_cli_bespoke_executor_rejects_each_setting(
        self, flags, setting, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments.cli as cli_module

        def must_not_run(*args, **kwargs):
            raise AssertionError("a rejected run must not start")

        monkeypatch.setattr(cli_module, "run_scenario", must_not_run)
        flags = [str(tmp_path / "ckpt") if flag == "DIR" else flag for flag in flags]
        assert main(["run", "memory", "--effort", "quick", *flags]) == 2
        captured = capsys.readouterr()
        assert "scenario 'memory' runs serially on its own executor" in captured.err
        assert setting in captured.err
        assert captured.out == ""
        assert not (tmp_path / "ckpt").exists()

    def test_cli_all_skips_scenarios_that_cannot_honour_options(self, capsys, monkeypatch):
        import repro.experiments.cli as cli_module

        ran = []

        def fake_run(name, *, effort, options):
            ran.append(name)
            return ExperimentResult(
                experiment=name, description="fake", rows=[{"n": 1}], metadata={}
            )

        monkeypatch.setattr(cli_module, "run_scenario", fake_run)
        assert main(["run", "all", "--effort", "quick", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("memory", "phase_clock", "baseline"):
            assert f"[{name}] skipped: scenario {name!r} runs serially" in out
            assert name not in ran
        assert "fig3" in ran

    def test_cli_engine_flag(self, capsys):
        preset_patch = {
            "quick": ExperimentPreset(
                name="quick", population_sizes=(50,), parallel_time=20, trials=1, seed=1
            )
        }
        original = PRESETS["fig3"]
        PRESETS["fig3"] = preset_patch
        try:
            assert main(["run", "fig3", "--effort", "quick", "--engine", "sequential"]) == 0
            captured = capsys.readouterr()
            assert "fig3" in captured.out
            # The removed exact array engine is an unknown name, rejected
            # before any work.
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "fig3", "--effort", "quick", "--engine", "array"])
            assert excinfo.value.code == 2
        finally:
            PRESETS["fig3"] = original


class TestScenarioCliCommands:
    """The redesigned registry-backed CLI: run / list / sweep."""

    @staticmethod
    def _patch_tiny(monkeypatch):
        tiny_preset = ExperimentPreset(
            name="quick", population_sizes=(50,), parallel_time=15, trials=1, seed=1
        )
        for experiment in PRESETS:
            monkeypatch.setitem(PRESETS, experiment, {"quick": tiny_preset})

    def test_run_subcommand_multiple_scenarios(self, capsys, monkeypatch):
        self._patch_tiny(monkeypatch)
        assert main(["run", "fig3", "oscillate", "--effort", "quick"]) == 0
        out = capsys.readouterr().out
        assert "[fig3] completed" in out
        assert "[oscillate] completed" in out

    def test_positional_scenario_without_subcommand_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command", [["run", "fig3"], ["sweep", "fig3", "--set", "n=64"]], ids=["run", "sweep"]
    )
    def test_jit_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--effort", "quick", "--jit"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jit" in capsys.readouterr().err

    def test_list_has_no_compiled_kernels_line(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        from repro.scenarios.registry import iter_scenarios

        assert "compiled kernels" not in out
        # The listing opens with the first scenario, not a backend line.
        assert out.startswith(f"{iter_scenarios()[0].name}: ")

    def test_list_shows_catalog_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("oscillate", "boom_bust", "churn", "repeated_decimation"):
            assert name in out

    def test_list_tag_filter(self, capsys):
        assert main(["list", "--tag", "adversarial"]) == 0
        out = capsys.readouterr().out
        assert "oscillate" in out
        assert "fig2:" not in out

    def test_run_unknown_scenario_is_one_line_error(self, capsys):
        assert main(["run", "warp9"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert err.count("\n") == 1

    def test_run_engine_auto(self, capsys, monkeypatch):
        self._patch_tiny(monkeypatch)
        assert main(["run", "fig3", "--engine", "auto"]) == 0
        assert "[fig3] completed" in capsys.readouterr().out

    def test_sweep_subcommand_runs_grid(self, capsys, monkeypatch, tmp_path):
        self._patch_tiny(monkeypatch)
        assert (
            main(
                [
                    "sweep",
                    "fig4",
                    "--set",
                    "keep=10,20",
                    "--set",
                    "drop_time=5",
                    "--effort",
                    "quick",
                    "--output",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "keep=10,drop_time=5" in out
        assert "keep=20,drop_time=5" in out
        assert (tmp_path / "keep=10__drop_time=5" / "fig4" / "manifest.json").exists()
        loaded = ExperimentResult.load(tmp_path / "keep=10__drop_time=5" / "fig4")
        assert loaded.metadata["sweep"] == "keep=10,drop_time=5"
        assert loaded.rows[0]["keep"] == 10

    def test_sweep_bad_axis_syntax_is_one_line_error(self, capsys):
        assert main(["sweep", "fig4", "--set", "keep"]) == 2
        assert "KEY=V1" in capsys.readouterr().err

    def test_sweep_invalid_protocol_params_fail_before_running(self, capsys, monkeypatch):
        self._patch_tiny(monkeypatch)
        # tau1=0.1 violates tau1 > tau2; the grid is validated up front.
        assert main(["sweep", "fig3", "--set", "tau1=0.1", "--effort", "quick"]) == 2
        err = capsys.readouterr().err
        assert "tau" in err

    def test_sweep_unsupported_engine_is_an_error(self, capsys):
        assert main(["sweep", "memory", "--set", "n=50", "--engine", "batched"]) == 2
        assert "sequential" in capsys.readouterr().err

    def test_run_missing_effort_preset_fails_before_work(self, capsys, monkeypatch):
        monkeypatch.delitem(PRESETS, "fig2")
        assert main(["run", "fig2", "--effort", "quick"]) == 2
        err = capsys.readouterr().err
        assert "fig2" in err

    def test_invalid_schedule_value_is_one_line_error(self, capsys, monkeypatch):
        self._patch_tiny(monkeypatch)
        # keep=1 produces an InvalidScheduleError (target below 2); the CLI
        # must report it as a one-line error, not a traceback.
        assert (
            main(["sweep", "fig4", "--set", "keep=1", "--effort", "quick"]) == 2
        )
        err = capsys.readouterr().err
        assert "at least 2" in err

    def test_run_invalid_workload_knob_is_one_line_error(self, capsys, monkeypatch):
        self._patch_tiny(monkeypatch)
        import repro.experiments.cli as cli_module
        from repro.engine.errors import InvalidScheduleError

        def broken(*args, **kwargs):
            raise InvalidScheduleError("bad schedule")

        monkeypatch.setattr(cli_module, "run_scenario", broken)
        assert main(["run", "fig4", "--effort", "quick"]) == 2
        assert "bad schedule" in capsys.readouterr().err

    def test_sweep_duplicate_set_key_is_an_error(self, capsys):
        assert main(["sweep", "fig4", "--set", "keep=10", "--set", "keep=20"]) == 2
        assert "duplicate --set key" in capsys.readouterr().err

    def test_load_keeps_noncanonical_numeric_strings_as_strings(self, tmp_path):
        result = ExperimentResult(
            experiment="demo",
            description="d",
            rows=[{"label": "1_000", "padded": " 42", "count": 7, "ratio": 0.5}],
        )
        loaded = ExperimentResult.load(result.save(tmp_path))
        assert loaded.rows == result.rows


class TestListJson:
    """``list --json``: machine-readable output shared with GET /scenarios."""

    def test_list_json_matches_shared_listing(self, capsys):
        import json

        from repro.scenarios.listing import scenario_listing

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == scenario_listing()

    def test_list_json_tag_filter(self, capsys):
        import json

        assert main(["list", "--json", "--tag", "adversarial"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload]
        assert "oscillate" in names
        assert "fig2" not in names

    def test_list_json_subprocess(self):
        """The real entry point, end to end: spawn, parse, cross-check."""
        import json
        import os
        import subprocess
        import sys

        from repro.scenarios.registry import scenario_names

        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "list", "--json"],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert [entry["name"] for entry in payload] == scenario_names()
        for entry in payload:
            assert {"name", "description", "tags", "engines", "efforts", "cache_key"} <= set(
                entry
            )
            assert len(entry["cache_key"]) == 64
