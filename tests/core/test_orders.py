"""Tests for repro.core.orders: rank grids, targets, sortedness predicates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.orders import (
    is_sorted_grid,
    linearize,
    position_of_rank,
    rank_grid,
    rank_of_position,
    row_major_rank_grid,
    snake_rank_grid,
    target_grid,
    validate_grid,
)
from repro.errors import DimensionError


class TestRankGrids:
    def test_row_major_4(self):
        expected = np.arange(16).reshape(4, 4)
        np.testing.assert_array_equal(row_major_rank_grid(4), expected)

    def test_snake_4(self):
        expected = np.array(
            [[0, 1, 2, 3], [7, 6, 5, 4], [8, 9, 10, 11], [15, 14, 13, 12]]
        )
        np.testing.assert_array_equal(snake_rank_grid(4), expected)

    def test_snake_odd_side(self):
        grid = snake_rank_grid(3)
        expected = np.array([[0, 1, 2], [5, 4, 3], [6, 7, 8]])
        np.testing.assert_array_equal(grid, expected)

    @pytest.mark.parametrize("side", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("order", ["row_major", "snake"])
    def test_rank_grid_is_permutation(self, side, order):
        grid = rank_grid(side, order)
        assert sorted(grid.ravel().tolist()) == list(range(side * side))

    def test_dispatch_unknown_order(self):
        with pytest.raises(DimensionError):
            rank_grid(4, "diagonal")

    def test_bad_side(self):
        with pytest.raises(DimensionError):
            row_major_rank_grid(0)


class TestPositionRankRoundTrip:
    @given(
        side=st.integers(min_value=1, max_value=12),
        order=st.sampled_from(["row_major", "snake"]),
        data=st.data(),
    )
    def test_roundtrip(self, side, order, data):
        rank = data.draw(st.integers(min_value=0, max_value=side * side - 1))
        r, c = position_of_rank(rank, side, order)
        assert rank_of_position(r, c, side, order) == rank

    def test_snake_even_row_reversal(self):
        # paper row 2 (0-based row 1) runs right to left
        assert position_of_rank(4, 4, "snake") == (1, 3)
        assert position_of_rank(7, 4, "snake") == (1, 0)

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            position_of_rank(16, 4, "snake")
        with pytest.raises(DimensionError):
            rank_of_position(4, 0, 4, "snake")


class TestSortednessPredicate:
    @pytest.mark.parametrize("order", ["row_major", "snake"])
    @pytest.mark.parametrize("side", [2, 3, 4, 7])
    def test_target_is_sorted(self, order, side):
        values = np.arange(side * side)[::-1]
        tgt = target_grid(values, side, order)
        assert is_sorted_grid(tgt, order)

    def test_unsorted_detected(self):
        grid = np.arange(16).reshape(4, 4)
        grid[0, 0], grid[3, 3] = grid[3, 3], grid[0, 0]
        assert not is_sorted_grid(grid, "row_major")

    def test_row_major_sorted_is_not_snake_sorted(self):
        grid = np.arange(16).reshape(4, 4)
        assert is_sorted_grid(grid, "row_major")
        assert not is_sorted_grid(grid, "snake")

    def test_ties_allowed(self):
        grid = np.zeros((4, 4), dtype=int)
        assert is_sorted_grid(grid, "row_major")
        assert is_sorted_grid(grid, "snake")

    def test_batched(self):
        a = np.arange(16).reshape(4, 4)
        b = a[::-1].copy()
        batch = np.stack([a, b])
        result = is_sorted_grid(batch, "row_major")
        assert result.tolist() == [True, False]

    def test_linearize_snake(self):
        grid = target_grid(np.arange(16), 4, "snake")
        seq = linearize(grid, "snake")
        np.testing.assert_array_equal(seq, np.arange(16))


class TestTargetGrid:
    def test_target_places_sorted_values(self):
        values = np.array([[3, 1], [0, 2]])
        tgt = target_grid(values, 2, "row_major")
        np.testing.assert_array_equal(tgt, [[0, 1], [2, 3]])

    def test_target_snake(self):
        values = np.arange(9)
        tgt = target_grid(values, 3, "snake")
        np.testing.assert_array_equal(tgt, [[0, 1, 2], [5, 4, 3], [6, 7, 8]])

    def test_target_batched(self):
        values = np.stack([np.arange(16).reshape(4, 4)] * 3)
        tgt = target_grid(values, 4, "snake")
        assert tgt.shape == (3, 4, 4)
        assert is_sorted_grid(tgt, "snake").all()

    def test_target_keeps_flat_batch_shape(self):
        values = np.random.default_rng(1).permutation(96).reshape(2, 3, 16)
        tgt = target_grid(values, 4, "row_major")
        assert tgt.shape == (2, 3, 4, 4)
        np.testing.assert_array_equal(
            tgt[1, 2], np.sort(values[1, 2]).reshape(4, 4)
        )

    def test_target_with_ties(self):
        values = np.array([[1, 1], [0, 0]])
        tgt = target_grid(values, 2, "row_major")
        np.testing.assert_array_equal(tgt, [[0, 0], [1, 1]])

    def test_wrong_size(self):
        with pytest.raises(DimensionError):
            target_grid(np.arange(10), 3, "row_major")


class TestValidateGrid:
    def test_accepts_square(self):
        assert validate_grid(np.zeros((5, 5))) == 5

    def test_accepts_batched(self):
        assert validate_grid(np.zeros((7, 3, 3))) == 3

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            validate_grid(np.zeros((3, 4)))

    def test_rejects_1d(self):
        with pytest.raises(DimensionError):
            validate_grid(np.zeros(9))
