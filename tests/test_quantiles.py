"""Tests pinning the sort-based snapshot statistics to NumPy semantics.

`quantiles` runs on every snapshot of every engine and `matrix_quantiles` on
every snapshot of the ensemble engine; both take min, median and max from
one ``np.sort``.  They are pinned exactly (NaN-aware, dtype included)
against the naive ``(min, np.median, max)`` definitions — NaN propagation,
infinities, the even-length median average and the few-valued float32 rows
the engines produce.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine.api import matrix_quantiles, quantiles


def reference_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ``(min, np.median, max)``, the definitions the engines must match."""
    with np.errstate(invalid="ignore", over="ignore"):
        return matrix.min(axis=1), np.median(matrix, axis=1), matrix.max(axis=1)


def reference(values) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(arr.min()), float(np.median(arr)), float(arr.max())


def assert_rows_equal(matrix: np.ndarray) -> None:
    """``matrix_quantiles`` equals the reference exactly: values, NaNs and dtypes."""
    with np.errstate(invalid="ignore", over="ignore"):
        actual = matrix_quantiles(matrix)
    for name, got, want in zip(("minima", "medians", "maxima"), actual, reference_rows(matrix)):
        np.testing.assert_array_equal(got, want, strict=True, err_msg=name)


def assert_triple_equal(values) -> None:
    with np.errstate(invalid="ignore", over="ignore"):
        actual = quantiles(values)
    expected = reference(values)
    assert all(
        a == e or (math.isnan(a) and math.isnan(e)) for a, e in zip(actual, expected)
    ), (actual, expected)
    assert all(type(a) is float for a in actual)


#: Widths 1 and 2, odd and even, and a per_agent-sized row.
WIDTHS = [1, 2, 3, 8, 9, 2000]


def few_valued_rows(rows: int, width: int, distinct: int, seed: int) -> np.ndarray:
    """Float32 rows with ``distinct`` values, like converged engine outputs."""
    gen = np.random.default_rng([rows, width, distinct, seed])
    levels = (gen.choice(np.arange(1, 40), distinct, replace=False) / 1.5).astype(np.float32)
    return levels[gen.integers(0, distinct, (rows, width))]


class TestQuantiles:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 10, 101, 1000])
    def test_matches_numpy_median_min_max(self, length):
        rng = np.random.default_rng(length)
        values = rng.normal(size=length)
        minimum, median, maximum = quantiles(values)
        assert minimum == values.min()
        assert median == np.median(values)
        assert maximum == values.max()

    def test_even_length_median_averages_middle_pair(self):
        assert quantiles([4.0, 1.0, 3.0, 2.0]) == (1.0, 2.5, 4.0)

    def test_accepts_integer_sequences(self):
        assert quantiles([5, 1, 3]) == (1.0, 3.0, 5.0)

    @pytest.mark.parametrize("length", [1, 2, 5, 8])
    def test_nan_propagates_to_all_statistics(self, length):
        values = np.arange(length, dtype=float)
        values[length // 2] = np.nan
        assert all(np.isnan(v) for v in quantiles(values))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantiles([])

    def test_ties_and_duplicates(self):
        values = np.array([2.0, 2.0, 2.0, 1.0, 3.0])
        assert quantiles(values) == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("distinct", [2, 3, 5])
    def test_few_valued_float32_outputs(self, width, distinct):
        assert_triple_equal(few_valued_rows(1, width, distinct, 0)[0])

    @pytest.mark.parametrize(
        "values",
        [[np.inf, 1.0, -np.inf], [np.inf, -np.inf], [np.inf, np.inf, 2.0, 3.0], [-np.inf]],
        ids=["odd", "even-mixed-infinities", "even-positive", "single"],
    )
    def test_infinities(self, values):
        assert_triple_equal(values)

    def test_nan_beside_infinities(self):
        assert all(np.isnan(v) for v in quantiles([np.inf, np.nan, -np.inf, 1.0]))


class TestMatrixQuantiles:
    @pytest.mark.parametrize("columns", [1, 2, 3, 8, 9, 250])
    def test_matches_numpy_row_reductions(self, columns):
        rng = np.random.default_rng(columns)
        assert_rows_equal(rng.normal(size=(7, columns)))

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("distinct", [2, 3, 4, 5])
    def test_few_valued_float32_rows(self, width, distinct):
        for seed in range(3):
            assert_rows_equal(few_valued_rows(3, width, distinct, seed))

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_row_beside_clean_rows(self, width, dtype):
        matrix = few_valued_rows(4, width, 3, 1).astype(dtype)
        matrix[1, width // 2] = np.nan
        stats = np.stack(matrix_quantiles(matrix))
        assert np.isnan(stats[:, 1]).all()
        assert not np.isnan(stats[:, [0, 2, 3]]).any()
        assert_rows_equal(matrix)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_infinities(self, width):
        matrix = few_valued_rows(4, width, 3, 2)
        matrix[0, 0] = np.inf
        matrix[1, -1] = -np.inf
        matrix[2, :] = np.inf
        matrix[3, : (width + 1) // 2] = -np.inf
        matrix[3, (width + 1) // 2 :] = np.inf
        assert_rows_equal(matrix)

    def test_nan_rows_report_nan_without_touching_others(self):
        matrix = np.array([[1.0, 2.0, 3.0], [np.nan, 1.0, 2.0]])
        minima, medians, maxima = matrix_quantiles(matrix)
        assert (minima[0], medians[0], maxima[0]) == (1.0, 2.0, 3.0)
        assert np.isnan(minima[1]) and np.isnan(medians[1]) and np.isnan(maxima[1])

    def test_preserves_float32(self):
        matrix = np.ones((3, 4), dtype=np.float32)
        minima, medians, maxima = matrix_quantiles(matrix)
        assert minima.dtype == np.float32
        assert medians.dtype == np.float32

    def test_integer_input_supported(self):
        matrix = np.array([[3, 1, 2], [5, 5, 5]])
        minima, medians, maxima = matrix_quantiles(matrix)
        assert list(minima) == [1, 5]
        assert list(medians) == [2, 5]
        assert list(maxima) == [3, 5]

    def test_does_not_modify_its_input(self):
        matrix = few_valued_rows(3, 9, 4, 0)
        before = matrix.copy()
        matrix_quantiles(matrix)
        assert np.array_equal(matrix, before)

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            matrix_quantiles(np.ones(5))
        with pytest.raises(ValueError):
            matrix_quantiles(np.empty((3, 0)))


@st.composite
def engine_like_matrices(draw) -> np.ndarray:
    """Float32/float64 matrices of few values or arbitrary floats, NaN and ±inf included."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    floats = st.floats(width=32 if dtype is np.float32 else 64)
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 12)))
    levels = draw(st.lists(floats, min_size=1, max_size=5))
    elements = draw(st.sampled_from([st.sampled_from(levels), floats]))
    return draw(hnp.arrays(dtype, shape, elements=elements))


class TestAgainstNumpy:
    @given(matrix=engine_like_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matrix_quantiles(self, matrix):
        assert_rows_equal(matrix)

    @given(matrix=engine_like_matrices())
    @settings(max_examples=300, deadline=None)
    def test_quantiles(self, matrix):
        assert_triple_equal(matrix[0])
