"""Canonical encoding and cache keys: invariance, distinctness, golden pins.

The serving layer's correctness rests on one property: two requests get the
same SHA-256 exactly when they denote the same computation.  These tests pin
the three layers of that property — the canonical JSON encoding, the
spec-level key, and the run-level key — plus golden hashes so an accidental
encoding change (which would silently orphan every cached artifact) fails
loudly here instead, and the package digest that ties every run key to the
code that computes it.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine.errors import ConfigurationError
from repro.engine.parallel import resolve_workers
from repro.experiments.base import ExperimentPreset
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, SweepSpec, canonical_json
from repro.serve.keys import (
    canonical_cache_key,
    normalize_engine_request,
    package_digest,
    run_encoding,
)

#: The ``repro`` package tree the run keys' ``code`` digest covers.
PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def metric_one(trace, point, preset, params):
    return {"n": point.n}


def metric_two(trace, point, preset, params):
    return {"m": point.n}


def make_spec(**overrides) -> ScenarioSpec:
    data = dict(name="keys_spec", description="key test", metrics=(metric_one,))
    data.update(overrides)
    return ScenarioSpec(**data)


def make_preset(**overrides) -> ExperimentPreset:
    data = dict(
        name="tiny", population_sizes=(80,), parallel_time=40, trials=2, seed=11
    )
    extra = overrides.pop("extra", {})
    data.update(overrides)
    return ExperimentPreset(extra=extra, **data)


# ------------------------------------------------------------ canonical JSON


class TestCanonicalJson:
    def test_dict_order_is_erased(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_container_spelling_is_erased(self):
        assert canonical_json((1, 2, 3)) == canonical_json([1, 2, 3])
        assert canonical_json({"x": (1, (2,))}) == canonical_json({"x": [1, [2]]})

    def test_integral_floats_collapse_to_ints(self):
        assert canonical_json(5.0) == canonical_json(5)
        assert canonical_json({"seed": 20240508.0}) == canonical_json({"seed": 20240508})
        # ... but a genuinely fractional float stays distinct.
        assert canonical_json(5.5) != canonical_json(5)

    def test_bools_are_not_ints(self):
        assert canonical_json(True) != canonical_json(1)
        assert canonical_json(False) != canonical_json(0)

    def test_sets_are_sorted(self):
        assert canonical_json({3, 1, 2}) == canonical_json([1, 2, 3])

    def test_nonfinite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                canonical_json(bad)

    def test_non_string_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json({1: "x"})

    def test_unencodable_values_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json(object())

    @settings(max_examples=50)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.recursive(
                st.one_of(
                    st.integers(-(10**9), 10**9),
                    st.floats(allow_nan=False, allow_infinity=False, width=32),
                    st.booleans(),
                    st.text(max_size=8),
                    st.none(),
                ),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text(min_size=1, max_size=4), inner, max_size=3),
                max_leaves=10,
            ),
            max_size=5,
        )
    )
    def test_property_insertion_order_invariant(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert canonical_json(payload) == canonical_json(reordered)


# ------------------------------------------------------------ spec-level key


class TestSpecCacheKey:
    def test_equal_specs_equal_keys(self):
        assert make_spec().cache_key() == make_spec().cache_key()

    @pytest.mark.parametrize(
        "change",
        [
            {"description": "other"},
            {"engine": "batched"},
            {"engines": ("batched", "ensemble")},
            {"keep_series": True},
            {"tags": ("adversarial",)},
            {"metrics": (metric_two,)},
            {"metrics": (metric_one, metric_two)},
            {"experiment_id": "other_id"},
            {"name": "other_name"},
        ],
    )
    def test_any_differing_field_changes_key(self, change):
        assert make_spec(**change).cache_key() != make_spec().cache_key()

    def test_encoding_is_json_encodable(self):
        # The encoding must survive canonical_json without special-casing.
        assert canonical_json(make_spec().canonical_encoding())


# ------------------------------------------------------------- run-level key


def run_key(**kwargs) -> str:
    spec = kwargs.pop("spec", make_spec())
    preset = kwargs.pop("preset", make_preset())
    return canonical_cache_key(spec, preset, **kwargs)


class TestRunCacheKey:
    def test_identical_requests_identical_keys(self):
        assert run_key() == run_key()

    @pytest.mark.parametrize(
        "preset_change",
        [
            {"population_sizes": (81,)},
            {"parallel_time": 41},
            {"trials": 3},
            {"seed": 12},
            {"name": "other"},
            {"extra": {"keep": 50}},
            {"extra": {"params_overrides": {"tau1": 3.0}}},
        ],
    )
    def test_any_preset_field_changes_key(self, preset_change):
        assert run_key(preset=make_preset(**preset_change)) != run_key()

    def test_schedule_knobs_change_key(self):
        base = run_key(preset=make_preset(extra={"period": 100}))
        assert run_key(preset=make_preset(extra={"period": 200})) != base

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "batched"},
            {"workers": 1},
            {"workers": 2},
            {"seed": 99},
        ],
    )
    def test_execution_knobs_change_key(self, kwargs):
        assert run_key(**kwargs) != run_key()

    def test_sweep_changes_key_and_axes_matter(self):
        sweep_a = SweepSpec.from_mapping("keys_spec", {"n": (32, 64)})
        sweep_b = SweepSpec.from_mapping("keys_spec", {"n": (32, 128)})
        assert run_key(sweep=sweep_a) != run_key()
        assert run_key(sweep=sweep_a) != run_key(sweep=sweep_b)
        assert run_key(sweep=sweep_a) == run_key(sweep=sweep_a)

    def test_preset_extra_ordering_is_erased(self):
        a = make_preset(extra={"keep": 50, "drop_time": 300})
        b = make_preset(extra={"drop_time": 300, "keep": 50})
        assert run_key(preset=a) == run_key(preset=b)

    def test_float_spelling_is_erased(self):
        a = make_preset(extra={"tau": 2.0})
        b = make_preset(extra={"tau": 2})
        assert run_key(preset=a) == run_key(preset=b)

    def test_engine_request_normalization(self):
        unpinned = make_spec()
        assert normalize_engine_request(unpinned, None) == "auto"
        assert run_key(spec=unpinned, engine=None) == run_key(spec=unpinned, engine="auto")
        pinned = make_spec(engine="batched")
        assert normalize_engine_request(pinned, None) == "batched"
        # For a pinned spec, the default and an explicit "auto" are different
        # computations and must not share a cache entry.
        assert run_key(spec=pinned, engine=None) == run_key(spec=pinned, engine="batched")
        assert run_key(spec=pinned, engine=None) != run_key(spec=pinned, engine="auto")

    def test_workers_auto_keys_on_resolved_count(self):
        resolved = resolve_workers("auto")
        assert run_key(workers="auto") == run_key(workers=resolved)

    def test_registered_name_and_spec_agree(self):
        # canonical_cache_key accepts the registered name or the spec object.
        from repro.scenarios.registry import get_scenario
        from repro.scenarios.runner import resolve_preset

        spec = get_scenario("fig2")
        preset = resolve_preset(spec, "quick")
        assert canonical_cache_key("fig2", preset) == canonical_cache_key(spec, preset)


# ------------------------------------------------------------------- goldens

#: Pinned canonical encodings: changing these strings means every deployed
#: cache key changes (all cached artifacts orphan).  If a change is
#: intentional, re-pin; the edit changes the package digest in every run key
#: as well.
GOLDEN_ENCODINGS = {
    "scalar-mix": (
        {"b": [1, 2.5], "a": {"y": True, "x": None}, "c": 5.0},
        '{"a":{"x":null,"y":true},"b":[1,2.5],"c":5}',
    ),
    "nested": (
        {"outer": {"inner": (1, (2, 3))}, "tag": "x"},
        '{"outer":{"inner":[1,[2,3]]},"tag":"x"}',
    ),
}

#: SHA-256 of the canonical encodings above — the exact hashing contract.
GOLDEN_HASHES = {
    "scalar-mix": "e0769b07b7e55fe826917e5ce53bf5a7debd4688f37da92c1a1e40169c47ed23",
    "nested": "acd75e5c58457ea5e00b14fafe930e7f9c692928d14cde207da67782f061ad46",
}


class TestGoldenPins:
    @pytest.mark.parametrize("case", sorted(GOLDEN_ENCODINGS))
    def test_encoding_pinned(self, case):
        value, expected = GOLDEN_ENCODINGS[case]
        assert canonical_json(value) == expected

    @pytest.mark.parametrize("case", sorted(GOLDEN_HASHES))
    def test_hash_pinned(self, case):
        _, encoding = GOLDEN_ENCODINGS[case]
        digest = hashlib.sha256(encoding.encode("ascii")).hexdigest()
        assert digest == GOLDEN_HASHES[case]

    def test_run_encoding_shape_pinned(self):
        # The key's *shape* is part of the contract; its ``code`` field is
        # the digest of the package that computes the run.
        encoding = run_encoding(make_spec(), make_preset())
        assert sorted(encoding) == [
            "code",
            "engine",
            "preset",
            "scenario",
            "sweep",
            "workers",
        ]
        assert encoding["code"] == package_digest(PACKAGE_ROOT)
        assert sorted(encoding["preset"]) == [
            "extra",
            "name",
            "parallel_time",
            "population_sizes",
            "seed",
            "trials",
        ]

    def test_spec_encoding_shape_pinned(self):
        # The spec's encoding is part of every key: a field appearing or
        # disappearing (v6 dropped protocol_factory) is a schema bump too.
        assert sorted(make_spec().canonical_encoding()) == [
            "describe",
            "description",
            "engine",
            "engines",
            "executor",
            "experiment_id",
            "keep_series",
            "knobs",
            "metrics",
            "name",
            "params_factory",
            "points",
            "schedule_kind",
            "tags",
        ]

    def test_small_auto_point_changed_rows_under_a_new_schema(self):
        """An auto point at n <= 128 now runs on a stacked engine.

        With ``engines=("batched", "ensemble")`` and no pin, an n = 80,
        3-trial point used to resolve to ``batched`` (the small tier's
        ``"array"`` was not listed, so the runner fell back to the first
        engine); it now resolves to ``ensemble``.  The request, and so
        every other field of its key, is unchanged while its rows are not;
        the key's ``code`` digest records it, since the edit that changed
        the rows changed the package.
        """
        spec = make_spec(engines=("batched", "ensemble"))
        preset = make_preset(population_sizes=(80,), parallel_time=20, trials=3)
        result = run_scenario(spec, preset=preset)
        assert result.metadata["execution"]["engine"] == "ensemble"
        assert run_encoding(spec, preset)["code"] == package_digest(PACKAGE_ROOT)


class TestPackageDigest:
    @pytest.mark.parametrize("edited", ["serve/keys.py", "scenarios/data/flash_crowd.csv"])
    def test_a_one_byte_edit_to_a_copied_tree_changes_the_digest(self, tmp_path, edited):
        copy = shutil.copytree(
            PACKAGE_ROOT, tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        assert package_digest(copy) == package_digest(PACKAGE_ROOT)
        # Compiled caches are not code the digest covers.
        (copy / "__pycache__").mkdir()
        (copy / "__pycache__" / "stale.py").write_text("x = 1\n")
        assert package_digest(copy) == package_digest(PACKAGE_ROOT)
        target = copy / edited
        data = target.read_bytes()
        target.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        assert package_digest(copy) != package_digest(PACKAGE_ROOT)
