"""The seeded scenario fuzzer: determinism, validity, registry integration.

The expensive property — cross-engine statistical conformance over many
generated cases — runs in CI's scenario-smoke job (``repro-experiments
fuzz``); here one small case keeps the full path covered, and everything
else pins the cheap invariants: same seed -> identical specs and cache
keys, every generated schedule is engine-valid, and registered fuzz cases
are first-class scenarios (CLI, listing, quick presets).
"""

from __future__ import annotations

import pytest

from repro.engine.adversary import ResizeSchedule
from repro.experiments.cli import main
from repro.scenarios.fuzz import (
    FAMILIES,
    check_conformance,
    generate_cases,
    register_fuzz_scenarios,
    unregister_fuzz_scenarios,
)
from repro.scenarios.registry import get_scenario, has_scenario
from repro.scenarios.runner import resolve_preset, run_scenario


class TestDeterminism:
    def test_same_seed_identical_cases_and_keys(self):
        first = generate_cases(11, 10)
        second = generate_cases(11, 10)
        assert first == second
        assert [c.cache_key() for c in first] == [c.cache_key() for c in second]
        assert [c.spec().cache_key() for c in first] == [
            c.spec().cache_key() for c in second
        ]

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
            ResizeSchedule.from_pairs(case.schedule)
            if case.family == "multi_phase":
                assert [p["name"] for p in case.phases] == [
                    "warmup",
                    "crash",
                    "recovery",
                ]


class TestRegistryIntegration:
    def test_registered_cases_are_scenarios(self):
        names = register_fuzz_scenarios(42, 2)
        try:
            assert all(has_scenario(name) for name in names)
            # Each case registers its quick preset too.
            for name in names:
                assert resolve_preset(get_scenario(name), "quick").name == "quick"
            result = run_scenario(names[0], effort="quick")
            assert result.rows
            assert result.metadata["scenario"] == names[0]
        finally:
            unregister_fuzz_scenarios(names)
        assert not any(has_scenario(name) for name in names)

    def test_multi_phase_case_records_boundaries(self):
        # Seed 42 case 1 is a multi_phase draw (pinned by determinism).
        case = generate_cases(42, 2)[1]
        assert case.family == "multi_phase"
        names = register_fuzz_scenarios(42, 2)
        try:
            result = run_scenario(case.name, effort="quick")
            phases = result.metadata["phases"][f"n_{case.n}"]
            assert [p["name"] for p in phases] == ["warmup", "crash", "recovery"]
            assert phases[-1]["stop"] == case.horizon
        finally:
            unregister_fuzz_scenarios(names)


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


class TestCli:
    def test_fuzz_list_only(self, capsys):
        assert main(["fuzz", "--seed", "3", "--count", "2", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fuzz_3_0" in out and "fuzz_3_1" in out

    def test_fuzz_rejects_unknown_engine(self):
        assert main(["fuzz", "--seed", "3", "--count", "1", "--engines", "nope"]) == 2
