"""Tests for the 1-D odd-even transposition sort substrate.

The sorter is the ``odd_even`` schedule family, run on a ``(..., 1, N)``
mesh through :func:`repro.backends.run_sort`; :func:`transposition_step`
is its one-step spec.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends import run_sort
from repro.errors import DimensionError
from repro.linear.odd_even import transposition_step, worst_case_input
from repro.schedules import build_odd_even


def sort_1d(array):
    """Sort each ``(..., N)`` row as a ``1 x N`` mesh; N + 2 steps suffice."""
    arr = np.asarray(array)
    n = arr.shape[-1]
    return run_sort(
        "vectorized",
        build_odd_even(),
        arr.reshape(*arr.shape[:-1], 1, n),
        max_steps=n + 2,
        raise_on_cap=True,
    )


class TestTranspositionStep:
    def test_odd_step_pairs(self):
        arr = np.array([2, 1, 4, 3, 6, 5])
        transposition_step(arr, 1)
        np.testing.assert_array_equal(arr, [1, 2, 3, 4, 5, 6])

    def test_even_step_pairs(self):
        arr = np.array([1, 3, 2, 5, 4, 6])
        transposition_step(arr, 2)
        np.testing.assert_array_equal(arr, [1, 2, 3, 4, 5, 6])

    def test_reverse_direction(self):
        arr = np.array([1, 2, 3, 4])
        transposition_step(arr, 1, direction=-1)
        np.testing.assert_array_equal(arr, [2, 1, 4, 3])

    def test_batched(self):
        arr = np.array([[2, 1], [1, 2]])
        transposition_step(arr, 1)
        np.testing.assert_array_equal(arr, [[1, 2], [1, 2]])

    def test_zero_time_rejected(self):
        with pytest.raises(DimensionError):
            transposition_step(np.array([1, 2]), 0)

    def test_bad_direction(self):
        with pytest.raises(DimensionError):
            transposition_step(np.array([1, 2]), 1, direction=2)


class TestSortLinear:
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=60))
    def test_sorts_any_list(self, values):
        arr = np.array(values)
        out = sort_1d(arr)
        np.testing.assert_array_equal(out.final.reshape(-1), np.sort(arr))
        assert out.steps_scalar() <= len(values)

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=60))
    def test_reverse_sorts_descending(self, values):
        # Definition 1's reverse bubble sort: N steps sort descending.
        arr = np.array(values)
        for t in range(1, len(values) + 1):
            transposition_step(arr, t, direction=-1)
        np.testing.assert_array_equal(arr, np.sort(values)[::-1])

    def test_already_sorted_zero_steps(self):
        assert sort_1d(np.arange(10)).steps_scalar() == 0

    def test_batched_matches_individual(self, rng):
        batch = np.stack([rng.permutation(12) for _ in range(6)])
        out = sort_1d(batch)
        for i in range(6):
            assert int(out.steps[i]) == sort_1d(batch[i]).steps_scalar()

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            sort_1d(np.array([]))

    def test_duplicates(self):
        out = sort_1d(np.array([2, 2, 1, 1, 0, 0]))
        np.testing.assert_array_equal(out.final.reshape(-1), [0, 0, 1, 1, 2, 2])


class TestWorstCase:
    @pytest.mark.parametrize("n", [2, 5, 16, 33])
    def test_worst_case_needs_n_minus_one(self, n):
        steps = sort_1d(worst_case_input(n)).steps_scalar()
        assert steps >= n - 1
        assert steps <= n

    def test_average_below_worst(self, rng):
        n = 64
        avg = np.mean(
            [sort_1d(rng.permutation(n)).steps_scalar() for _ in range(30)]
        )
        assert (n - 1) / 2 <= avg <= n

    def test_invalid_n(self):
        with pytest.raises(DimensionError):
            worst_case_input(0)
