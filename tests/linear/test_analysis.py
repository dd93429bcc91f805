"""Tests for the 1-D analytic facts of Section 1."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.linear.analysis import (
    average_lower_order,
    average_lower_smallest_element,
    expected_min_displacement,
    worst_case_upper,
)
from repro.backends import run_sort
from repro.schedules import build_odd_even


class TestBounds:
    def test_smallest_element_bound_value(self):
        assert average_lower_smallest_element(11) == Fraction(5)
        assert average_lower_smallest_element(2) == Fraction(1, 2)

    def test_expected_min_displacement_alias(self):
        assert expected_min_displacement(9) == average_lower_smallest_element(9)

    def test_worst_case_upper(self):
        assert worst_case_upper(10) == 10

    def test_order_bound_below_n(self):
        for n in (4, 16, 100):
            assert average_lower_order(n) < n
            assert average_lower_order(n) >= n - 2 * n**0.5 - 1e-9

    @pytest.mark.parametrize("fn", [average_lower_smallest_element, worst_case_upper, average_lower_order])
    def test_reject_nonpositive(self, fn):
        with pytest.raises(DimensionError):
            fn(0)


class TestBoundsAgainstMeasurement:
    def test_average_dominates_both_lower_bounds(self, rng):
        n = 128
        schedule = build_odd_even()
        steps = []
        base = np.arange(n)
        for _ in range(40):
            out = run_sort("vectorized", schedule, rng.permutation(base).reshape(1, n))
            steps.append(int(out.steps[()]))
        mean = float(np.mean(steps))
        assert mean >= float(average_lower_smallest_element(n))
        assert mean >= average_lower_order(n)
        assert mean <= worst_case_upper(n)

    def test_min_displacement_expectation(self, rng):
        """The displacement of the minimum is uniform: mean ~ (N-1)/2."""
        n = 64
        disp = [int(np.argmin(rng.permutation(n))) for _ in range(4000)]
        assert abs(np.mean(disp) - (n - 1) / 2) < 1.5
