"""The five algorithms and the target orders on rectangular meshes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import compiled_schedule, run_sort, step_cap
from repro.core.algorithms import ALGORITHM_NAMES, SNAKE_NAMES, get_algorithm
from repro.core.orders import is_sorted_grid, rank_grid, target_grid, validate_shape
from repro.errors import DimensionError, StepLimitExceeded, UnsupportedMeshError


def _perm(rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(rows * cols).reshape(rows, cols)


class TestRectOrders:
    def test_rank_grid_snake(self):
        grid = rank_grid(2, "snake", cols=3)
        np.testing.assert_array_equal(grid, [[0, 1, 2], [5, 4, 3]])

    def test_rank_grid_row_major(self):
        grid = rank_grid(3, "row_major", cols=2)
        np.testing.assert_array_equal(grid, [[0, 1], [2, 3], [4, 5]])

    def test_target_and_sorted(self):
        tgt = target_grid(np.arange(12)[::-1], 3, "snake", cols=4)
        assert tgt.shape == (3, 4)
        assert is_sorted_grid(tgt, "snake")
        assert not is_sorted_grid(tgt, "row_major")

    def test_validate_shape(self):
        assert validate_shape(np.zeros((3, 5))) == (3, 5)
        assert validate_shape(np.zeros((2, 1, 12))) == (1, 12)
        with pytest.raises(DimensionError):
            validate_shape(np.zeros(5))
        with pytest.raises(DimensionError):
            validate_shape(np.zeros((3, 0)))

    def test_unknown_order(self):
        with pytest.raises(DimensionError):
            rank_grid(2, "spiral", cols=3)

    def test_wrong_size(self):
        with pytest.raises(DimensionError):
            target_grid(np.arange(10), 3, "snake", cols=4)

    @pytest.mark.parametrize("rows, cols", [(3, 5), (1, 12)])
    @pytest.mark.parametrize("order", ["row_major", "snake"])
    def test_target_keeps_batch_shape(self, rows, cols, order):
        values = np.random.default_rng(0).permutation(2 * 3 * rows * cols)
        flat = values.reshape(2, 3, rows * cols)
        grids = flat.reshape(2, 3, rows, cols)
        for given in (flat, grids):
            tgt = target_grid(given, rows, order, cols=cols)
            assert tgt.shape == (2, 3, rows, cols)
            assert is_sorted_grid(tgt, order).all()
            for i in range(2):
                for j in range(3):
                    np.testing.assert_array_equal(
                        tgt[i, j], target_grid(flat[i, j], rows, order, cols=cols)
                    )


class TestRectExecution:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (3, 8), (8, 8)])
    def test_sorts_rectangles(self, name, shape):
        rows, cols = shape
        schedule = get_algorithm(name)
        if schedule.requires_even_side and cols % 2:
            pytest.skip("row-major needs even column count")
        out = run_sort("vectorized", schedule, _perm(rows, cols, 1))
        assert bool(np.all(out.completed))
        assert is_sorted_grid(out.final, schedule.order)

    @pytest.mark.parametrize("name", SNAKE_NAMES)
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (7, 4)])
    def test_snakes_on_odd_shapes(self, name, shape):
        out = run_sort("vectorized", get_algorithm(name), _perm(*shape, 2))
        assert bool(np.all(out.completed))

    def test_row_major_odd_cols_rejected(self):
        with pytest.raises(UnsupportedMeshError):
            compiled_schedule(get_algorithm("row_major_row_first"), 4, 5)

    def test_row_major_odd_rows_allowed(self):
        out = run_sort("vectorized", get_algorithm("row_major_row_first"), _perm(5, 4, 3))
        assert bool(np.all(out.completed))

    def test_tiny_rejected(self):
        # A 1x1 mesh has nothing to compare and is still rejected; 1xN
        # linear arrays became first-class with the schedule registry's
        # linear topology and must compile and sort.
        with pytest.raises(UnsupportedMeshError):
            compiled_schedule(get_algorithm("snake_1"), 1, 1)
        out = run_sort("vectorized", get_algorithm("snake_1"), _perm(1, 4, 7))
        assert bool(np.all(out.completed))

    def test_cap(self):
        schedule = get_algorithm("snake_3")
        out = run_sort("vectorized", schedule, _perm(4, 6, 4), max_steps=1)
        assert int(out.steps) == -1
        with pytest.raises(StepLimitExceeded):
            run_sort("vectorized", schedule, _perm(4, 6, 4), max_steps=1, raise_on_cap=True)

    def test_batched(self):
        grids = np.stack([_perm(4, 6, s) for s in range(5)])
        out = run_sort("vectorized", get_algorithm("snake_1"), grids)
        assert out.steps.shape == (5,)
        assert bool(np.all(out.completed))

    def test_step_cap_scales(self):
        assert step_cap(4, 8) > 8 * 32
