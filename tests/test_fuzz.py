"""The seeded scenario fuzzer: determinism, validity, conformance.

The expensive property — cross-engine statistical conformance over many
generated cases — runs in CI's scenario-smoke job (``repro-experiments
fuzz``); here one small case keeps the full path covered, and everything
else pins the cheap invariants: same seed -> identical cases and cache
keys, every generated schedule is engine-valid, and a case's parameter
overrides resolve through the scenario runner's rule.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.api import resize_events
from repro.experiments.cli import main
from repro.scenarios.fuzz import (
    DEFAULT_ENGINES,
    EXACT_REFERENCE_MAX_N,
    FAMILIES,
    ConformancePair,
    check_conformance,
    default_engines,
    generate_cases,
)


class TestDeterminism:
    def test_same_seed_identical_cases_and_keys(self):
        first = generate_cases(11, 10)
        second = generate_cases(11, 10)
        assert first == second
        assert [c.cache_key() for c in first] == [c.cache_key() for c in second]

    def test_prefix_stable(self):
        # Case i only depends on (seed, i), never on count.
        assert generate_cases(11, 3) == generate_cases(11, 10)[:3]

    def test_different_seeds_differ(self):
        keys = {c.cache_key() for c in generate_cases(1, 5)}
        other = {c.cache_key() for c in generate_cases(2, 5)}
        assert keys.isdisjoint(other)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            generate_cases(1, 0)


class TestValidity:
    def test_generated_schedules_are_engine_valid(self):
        cases = generate_cases(99, 40)
        assert {c.family for c in cases} == set(FAMILIES)
        for case in cases:
            assert case.n >= 2
            assert case.horizon >= 2
            assert case.trials >= 1
            resize_events(case.schedule)
            if case.family == "multi_phase":
                assert [p["name"] for p in case.phases] == [
                    "warmup",
                    "crash",
                    "recovery",
                ]


class TestResolvedParams:
    def test_overriding_k_rederives_grv_samples(self):
        # The scenario runner's rule: k alone re-derives grv_samples (one per k).
        case = dataclasses.replace(generate_cases(34, 1)[0], params_overrides={"k": 8})
        assert case.resolved_params().grv_samples == 8
        pinned = dataclasses.replace(case, params_overrides={"k": 32, "grv_samples": 3})
        assert (pinned.resolved_params().k, pinned.resolved_params().grv_samples) == (32, 3)


class TestConformance:
    def test_small_case_conforms_across_engines(self):
        # Keep it cheap: one generated case, few trials.  The KS critical
        # value is wide at this sample size, so this is a smoke of the full
        # path (generate -> simulate x3 engines -> KS), not a power test;
        # CI's fuzz leg runs the real battery.
        case = generate_cases(7, 1)[0]
        report = check_conformance(case, trials=8)
        assert len(report.pairs) == 6  # 3 engine pairs x 2 statistics
        assert report.ok, [
            (p.engine_a, p.engine_b, p.statistic, p.ks, p.critical)
            for p in report.failures()
        ]

    @pytest.mark.parametrize(
        ("seed", "index", "exact"),
        [
            # A bundled trace that starts at 30 agents and grows to 300.
            (20240807, 3, False),
            # A random_churn draw that never leaves its 51 agents.
            (7, 2, True),
            # No schedule, 16 agents.
            (34, 0, True),
        ],
    )
    def test_the_exact_reference_is_bounded_by_the_largest_population(
        self, seed, index, exact
    ):
        case = generate_cases(seed, index + 1)[index]
        largest = max((case.n, *(target for _, target in case.schedule)))
        assert case.n <= EXACT_REFERENCE_MAX_N
        assert (largest <= EXACT_REFERENCE_MAX_N) == exact
        expected = DEFAULT_ENGINES + ("sequential",) if exact else DEFAULT_ENGINES
        assert default_engines(case) == expected

    def test_small_case_is_checked_against_the_exact_engine(self):
        # Seed 7 case 2 is a 51-agent random_churn draw (pinned by determinism).
        case = generate_cases(7, 3)[2]
        assert default_engines(case) == DEFAULT_ENGINES + ("sequential",)
        report = check_conformance(case, trials=8)
        assert report.engines == DEFAULT_ENGINES + ("sequential",)
        exact = [p for p in report.pairs if "sequential" in (p.engine_a, p.engine_b)]
        assert {(p.engine_a, p.statistic) for p in exact} == {
            (engine, statistic)
            for engine in ("batched", "ensemble", "counts")
            for statistic in ("final_error", "tracking_error")
        }
        assert all(p.ok for p in exact), [
            (p.engine_a, p.engine_b, p.statistic, p.ks, p.critical) for p in exact
        ]

    def test_an_explicit_engine_list_runs_exactly_as_given(self):
        # Seed 34 case 0: 16 agents, so the default would add the reference.
        case = generate_cases(34, 1)[0]
        assert case.n <= EXACT_REFERENCE_MAX_N
        report = check_conformance(case, engines=("batched", "counts"), trials=2)
        assert report.engines == ("batched", "counts")
        assert {(p.engine_a, p.engine_b) for p in report.pairs} == {("batched", "counts")}

    def test_a_chance_failure_is_cleared_by_a_fresh_larger_sample(self):
        # Seed 20240807 case 3 (a bundled trace, 30 agents growing to 300) is
        # the one case of CI's fuzz run whose first 16-trial sample fails:
        # batched vs sequential reads KS 0.75 > 0.689 on both statistics.
        # Four times the trials on fresh seeds put both far below critical.
        case = generate_cases(20240807, 4)[3]
        report = check_conformance(case, engines=("batched", "sequential"), trials=16)
        assert report.reruns == ("batched", "sequential")
        assert report.ok and report.failures() == ()
        assert report.confirmed() == report.pairs
        for pair in report.pairs:
            assert pair.ks > pair.critical
            again = pair.confirmation
            assert again.ks <= again.critical < pair.critical
            assert again.confirmation is None

    def test_a_pair_fails_only_if_its_confirmation_fails_too(self):
        def pair(ks, confirmation=None):
            return ConformancePair("batched", "sequential", "final_error", ks, 0.5, confirmation)

        assert pair(0.4).ok
        assert not pair(0.6).ok
        assert pair(0.6, confirmation=pair(0.4)).ok
        assert not pair(0.6, confirmation=pair(0.6)).ok
        # A passing first sample is never rerun: its verdict is its own.
        assert pair(0.4, confirmation=pair(0.6)).ok


class TestCli:
    def test_fuzz_list_only(self, capsys):
        assert main(["fuzz", "--seed", "3", "--count", "2", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fuzz_3_0" in out and "fuzz_3_1" in out

    def test_fuzz_rejects_unknown_engine(self):
        assert main(["fuzz", "--seed", "3", "--count", "1", "--engines", "nope"]) == 2

    @pytest.mark.parametrize(
        ("engines", "runs"), [((), 4), (("--engines", "batched,counts"), 2)]
    )
    def test_fuzz_counts_the_engines_each_case_ran(self, capsys, engines, runs):
        # Seed 34 case 0 has 16 agents: the default adds the exact reference.
        argv = ["fuzz", "--seed", "34", "--count", "1", "--trials", "2", *engines]
        assert main(argv) == 0
        assert f"{runs} engine runs and 0 confirmation run(s)" in capsys.readouterr().out
