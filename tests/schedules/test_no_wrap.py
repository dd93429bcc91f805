"""Tests for the broken no-wrap baseline and the adversarial input."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_sort, run_steps
from repro.core.runner import sort_grid
from repro.errors import DimensionError
from repro.schedules import build_row_major_no_wrap
from repro.schedules import smallest_column_adversary
from repro.zeroone.threshold import threshold_matrix
from repro.zeroone.weights import column_zeros


class TestAdversary:
    def test_smallest_values_in_column(self):
        grid = smallest_column_adversary(6)
        assert set(grid[:, 0].tolist()) == set(range(6))
        assert sorted(grid.ravel().tolist()) == list(range(36))

    def test_other_column(self):
        grid = smallest_column_adversary(6, column=3)
        assert set(grid[:, 3].tolist()) == set(range(6))

    def test_bad_args(self):
        with pytest.raises(DimensionError):
            smallest_column_adversary(1)
        with pytest.raises(DimensionError):
            smallest_column_adversary(4, column=4)


class TestNoWrapNeverSorts:
    def test_column_weights_invariant(self):
        """Without wrap wires, no value crosses the column-1 boundary:
        the zero count of each column is preserved by every step."""
        side = 6
        adversary = smallest_column_adversary(side)
        zero_one = threshold_matrix(adversary, side)
        schedule = build_row_major_no_wrap()
        zeros_before = column_zeros(zero_one)
        after = run_steps("vectorized", schedule, zero_one, 8 * side)
        np.testing.assert_array_equal(column_zeros(after), zeros_before)

    def test_never_completes(self):
        side = 6
        adversary = smallest_column_adversary(side)
        out = run_sort(
            "vectorized", build_row_major_no_wrap(), adversary, max_steps=4 * side * side
        )
        assert not out.all_completed

    def test_wired_version_completes_same_input(self):
        side = 6
        adversary = smallest_column_adversary(side)
        report = sort_grid("row_major_row_first", adversary)
        assert report.outcome.all_completed

    def test_random_inputs_can_still_fail(self):
        """The no-wrap schedule is not a sorting network — Section 1's
        argument applies to the adversary; generic inputs may or may not
        sort, but the schedule carries no wrap ops at all."""
        schedule = build_row_major_no_wrap()
        assert not schedule.uses_wraparound
        assert schedule.requires_even_side
