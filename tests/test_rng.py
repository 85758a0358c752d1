"""Tests for repro.engine.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.rng import RandomSource, RowStreams, make_rng, spawn_streams


class TestMakeRng:
    def test_same_seed_same_sequence(self):
        a = make_rng(7)
        b = make_rng(7)
        assert list(a.integers(0, 100, size=10)) == list(b.integers(0, 100, size=10))

    def test_different_seeds_differ(self):
        a = make_rng(1)
        b = make_rng(2)
        assert list(a.integers(0, 1_000_000, size=10)) != list(b.integers(0, 1_000_000, size=10))


class TestSpawnStreams:
    def test_count(self):
        assert len(spawn_streams(3, 5)) == 5

    def test_zero_count(self):
        assert spawn_streams(3, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_streams(3, -1)

    def test_streams_are_independent(self):
        streams = spawn_streams(11, 2)
        a = list(streams[0].integers(0, 1_000_000, size=20))
        b = list(streams[1].integers(0, 1_000_000, size=20))
        assert a != b

    def test_reproducible_from_root_seed(self):
        first = spawn_streams(99, 3)
        second = spawn_streams(99, 3)
        for x, y in zip(first, second):
            assert list(x.integers(0, 1000, size=5)) == list(y.integers(0, 1000, size=5))


class TestRandomSource:
    def test_coin_is_boolean(self, rng):
        assert all(isinstance(rng.coin(), bool) for _ in range(10))

    def test_coin_is_roughly_fair(self, rng):
        heads = sum(rng.coin() for _ in range(4000))
        assert 1700 < heads < 2300

    def test_biased_coin_extremes(self, rng):
        assert all(rng.biased_coin(1.0) for _ in range(10))
        assert not any(rng.biased_coin(0.0) for _ in range(10))

    def test_biased_coin_rejects_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            rng.biased_coin(1.5)
        with pytest.raises(ValueError):
            rng.biased_coin(-0.1)

    def test_geometric_support(self, rng):
        samples = [rng.geometric() for _ in range(2000)]
        assert min(samples) >= 1
        # P[X = 1] = 1/2, so roughly half the samples should be 1.
        ones = samples.count(1)
        assert 800 < ones < 1200

    def test_geometric_max_at_least_single(self, rng):
        assert rng.geometric_max(0) == 1
        for _ in range(100):
            assert rng.geometric_max(5) >= 1

    def test_geometric_max_grows_with_count(self, rng):
        small = np.mean([rng.geometric_max(1) for _ in range(500)])
        large = np.mean([rng.geometric_max(64) for _ in range(500)])
        assert large > small + 3  # log2(64) = 6 expected shift

    def test_geometric_max_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            rng.geometric_max(-1)

    def test_uniform_index_range(self, rng):
        values = {rng.uniform_index(5) for _ in range(200)}
        assert values == {0, 1, 2, 3, 4}

    def test_uniform_index_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            rng.uniform_index(0)

    def test_ordered_pair_distinct(self, rng):
        for _ in range(500):
            i, j = rng.ordered_pair(7)
            assert i != j
            assert 0 <= i < 7
            assert 0 <= j < 7

    def test_ordered_pair_requires_two_agents(self, rng):
        with pytest.raises(ValueError):
            rng.ordered_pair(1)

    def test_ordered_pair_covers_all_pairs(self, rng):
        seen = {rng.ordered_pair(3) for _ in range(500)}
        assert seen == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}

    def test_ordered_pairs_vectorised_distinct(self, rng):
        initiators, responders = rng.ordered_pairs(10, 1000)
        assert len(initiators) == len(responders) == 1000
        assert not np.any(initiators == responders)
        assert initiators.min() >= 0 and initiators.max() < 10
        assert responders.min() >= 0 and responders.max() < 10

    def test_ordered_pairs_rejects_bad_input(self, rng):
        with pytest.raises(ValueError):
            rng.ordered_pairs(1, 5)
        with pytest.raises(ValueError):
            rng.ordered_pairs(5, -1)

    def test_ordered_pair_matrix_rows_distinct_and_bounded(self, rng):
        initiators, responders = rng.ordered_pair_matrix(9, 4, 500)
        assert initiators.shape == responders.shape == (4, 500)
        assert not np.any(initiators == responders)
        assert initiators.min() >= 0 and initiators.max() < 9
        assert responders.min() >= 0 and responders.max() < 9

    def test_ordered_pair_matrix_dtype_and_errors(self, rng):
        initiators, responders = rng.ordered_pair_matrix(5, 2, 10, dtype=np.int32)
        assert initiators.dtype == np.int32 and responders.dtype == np.int32
        with pytest.raises(ValueError):
            rng.ordered_pair_matrix(1, 2, 10)
        with pytest.raises(ValueError):
            rng.ordered_pair_matrix(5, 0, 10)
        with pytest.raises(ValueError):
            rng.ordered_pair_matrix(5, 2, -1)

    def test_geometric_max_array_distribution(self, rng):
        samples = rng.geometric_max_array(16, 200_000)
        assert samples.min() >= 1
        assert np.all(samples == np.floor(samples))
        # Mean of max of 16 Geom(1/2) draws is ~log2(16) + 1.33 ~ 5.33.
        assert 5.1 < samples.mean() < 5.7
        # Tail matches P(X >= m) = 1 - (1 - 2^-(m-1))^16 within sampling noise.
        p_tail = float((samples >= 12).mean())
        expected = 1 - (1 - 2.0 ** -11) ** 16
        assert p_tail == pytest.approx(expected, rel=0.35)

    def test_geometric_max_array_single_draw_matches_geometric(self, rng):
        samples = rng.geometric_max_array(1, 200_000)
        assert samples.mean() == pytest.approx(2.0, abs=0.05)

    def test_geometric_max_array_errors_and_empty(self, rng):
        assert rng.geometric_max_array(4, 0).size == 0
        with pytest.raises(ValueError):
            rng.geometric_max_array(0, 5)
        with pytest.raises(ValueError):
            rng.geometric_max_array(4, -1)

    def test_shuffled_is_permutation(self, rng):
        items = list(range(20))
        shuffled = rng.shuffled(items)
        assert sorted(shuffled) == items

    def test_spawn_children_are_independent(self, rng):
        children = list(rng.spawn(2))
        a = [children[0].geometric() for _ in range(20)]
        b = [children[1].geometric() for _ in range(20)]
        assert a != b

    def test_from_seed_reproducible(self):
        a = RandomSource.from_seed(5)
        b = RandomSource.from_seed(5)
        assert [a.geometric() for _ in range(10)] == [b.geometric() for _ in range(10)]


class TestRowStreams:
    """Each row's part of a draw comes from that row's own source."""

    @staticmethod
    def _streams(rows):
        return RowStreams([RandomSource.from_seed(100 + row) for row in range(rows)])

    def test_pair_rows_are_one_row_draws_widened(self):
        initiators, responders = self._streams(3).ordered_pair_matrix(10, 3, 7, dtype=np.int64)
        assert initiators.shape == responders.shape == (3, 7)
        assert initiators.dtype == np.int64
        for row in range(3):
            expected = RandomSource.from_seed(100 + row).ordered_pair_matrix(10, 1, 7, np.int32)
            assert initiators[row].tolist() == expected[0][0].tolist()
            assert responders[row].tolist() == expected[1][0].tolist()

    def test_row_count_must_match(self):
        with pytest.raises(ValueError):
            self._streams(2).ordered_pair_matrix(10, 3, 5)
        with pytest.raises(ValueError):
            self._streams(2).uniform_matrix(1, 5)

    def test_lanes_split_at_row_boundaries(self):
        streams = self._streams(3)
        # Width 4: lanes 1 and 3 belong to row 0, none to row 1, 9 to row 2.
        lanes = np.array([1, 3, 9])
        draws = streams.geometric_max_lanes(5, lanes, 4)
        assert draws.tolist() == (
            RandomSource.from_seed(100).geometric_max_array(5, 2).tolist()
            + RandomSource.from_seed(102).geometric_max_array(5, 1).tolist()
        )
        # The row without lanes drew nothing.
        assert streams.sources[1].state == RandomSource.from_seed(101).state
        coins = self._streams(3).coin_lanes(lanes, 4)
        assert coins.tolist() == (
            RandomSource.from_seed(100).coin_lanes(lanes[:2], 4).tolist()
            + RandomSource.from_seed(102).coin_lanes(lanes[2:], 4).tolist()
        )

    @pytest.mark.parametrize(
        ("rows", "lanes"),
        [(1, [0, 2, 3]), (4, [1, 2, 13, 14]), (3, [8, 9, 11]), (3, [])],
        ids=["single-row", "middle-rows-empty", "last-row-only", "no-lanes"],
    )
    @pytest.mark.parametrize("draw", ["geometric_max_lanes", "coin_lanes"])
    def test_lane_draws_are_each_rows_one_row_draws(self, rows, lanes, draw):
        """Every source makes exactly the draws of a one-row engine on its row.

        A one-row kernel draws for its own lanes (positions below the
        width) and skips the draw when it has none.
        """
        width = 4
        lanes = np.array(lanes, dtype=np.intp)

        def call(source, own):
            if draw == "geometric_max_lanes":
                return source.geometric_max_lanes(5, own, width)
            return source.coin_lanes(own, width)

        streams = self._streams(rows)
        drawn = call(streams, lanes)
        expected = []
        for row in range(rows):
            one_row = RandomSource.from_seed(100 + row)
            own = lanes[(lanes >= row * width) & (lanes < (row + 1) * width)] - row * width
            if own.size:
                expected.append(call(one_row, own))
            assert streams.sources[row].state == one_row.state, row
        assert drawn.dtype == {"geometric_max_lanes": np.float64, "coin_lanes": bool}[draw]
        assert drawn.tolist() == (np.concatenate(expected).tolist() if expected else [])

    def test_state_round_trip_and_mismatch(self):
        streams = self._streams(2)
        saved = streams.state
        first = streams.uniform_matrix(2, 3)
        streams.state = saved
        assert streams.uniform_matrix(2, 3).tolist() == first.tolist()
        with pytest.raises(ValueError):
            streams.state = saved[:1]
