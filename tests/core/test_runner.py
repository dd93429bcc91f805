"""Tests for the high-level runner API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import get_algorithm
from repro.core.runner import describe_algorithm, resolve_algorithm, sort_grid, sort_steps, trace
from repro.errors import DimensionError, StepLimitExceeded, UnsupportedMeshError
from repro.randomness import random_permutation_grid


class TestSortGrid:
    def test_by_name(self, rng):
        grid = random_permutation_grid(6, rng=rng)
        report = sort_grid("snake_1", grid)
        assert report.algorithm == "snake_1"
        assert report.side == 6
        assert report.steps_scalar() > 0

    def test_by_schedule_object(self, rng):
        grid = random_permutation_grid(6, rng=rng)
        report = sort_grid(get_algorithm("snake_2"), grid)
        assert report.algorithm == "snake_2"

    def test_reference_engine_agrees(self, rng):
        grid = random_permutation_grid(6, rng=rng)
        fast = sort_grid("row_major_row_first", grid)
        slow = sort_grid("row_major_row_first", grid, backend="reference")
        assert fast.steps_scalar() == slow.steps_scalar()
        np.testing.assert_array_equal(fast.final, slow.final)

    @pytest.mark.parametrize("backend", ["reference", "mesh"])
    def test_cell_level_backends_sort_batches(self, backend, rng):
        grids = random_permutation_grid(4, batch=3, rng=rng)
        fast = sort_grid("snake_1", grids)
        slow = sort_grid("snake_1", grids, backend=backend)
        np.testing.assert_array_equal(slow.steps, fast.steps)
        np.testing.assert_array_equal(slow.final, fast.final)

    def test_unknown_backend(self, rng):
        with pytest.raises(DimensionError, match="unknown backend"):
            sort_grid("snake_1", random_permutation_grid(4, rng=rng), backend="gpu")

    def test_unknown_algorithm(self, rng):
        with pytest.raises(UnsupportedMeshError):
            sort_grid("quicksort", random_permutation_grid(4, rng=rng))

    def test_row_major_odd_side_rejected(self, rng):
        with pytest.raises(UnsupportedMeshError):
            sort_grid("row_major_row_first", random_permutation_grid(5, rng=rng))

    def test_raise_on_cap(self, rng):
        grid = random_permutation_grid(8, rng=rng)
        with pytest.raises(StepLimitExceeded):
            sort_grid("snake_3", grid, max_steps=1, raise_on_cap=True)


class TestHelpers:
    def test_sort_steps_runs_exactly(self, rng):
        grid = random_permutation_grid(4, rng=rng)
        one = sort_steps("snake_1", grid, 1)
        two = sort_steps("snake_1", grid, 2)
        assert not np.array_equal(one, two) or np.array_equal(one, two)
        # second step applied on top of first
        again = sort_steps("snake_1", one, 1, start_t=2)
        np.testing.assert_array_equal(again, two)

    def test_trace_counts(self, rng):
        grid = random_permutation_grid(4, rng=rng)
        snaps = list(trace("snake_3", grid, 5))
        assert len(snaps) == 5

    def test_resolve_passthrough(self):
        schedule = get_algorithm("snake_1")
        assert resolve_algorithm(schedule) is schedule

    def test_describe(self):
        assert "row_major_col_first" in describe_algorithm("row_major_col_first")
