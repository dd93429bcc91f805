"""Tests for the Monte-Carlo harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StepLimitExceeded
from repro.experiments.montecarlo import (
    _sort_steps_values,
    _statistic_values,
    summarize,
)
from repro.zeroone.trackers import z1_statistic


class TestSummarize:
    def test_basic(self):
        stats = summarize(np.array([1.0, 2.0, 3.0]))
        assert stats.mean == 2.0  # repro: allow=RPR106
        assert stats.count == 3
        assert stats.minimum == 1.0 and stats.maximum == 3.0  # repro: allow=RPR106
        lo, hi = stats.ci95
        assert lo < 2.0 < hi

    def test_single_value(self):
        stats = summarize(np.array([5.0]))
        assert stats.std == 0.0 and stats.sem == 0.0  # repro: allow=RPR106

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))

    def test_describe(self):
        assert "mean=" in summarize(np.array([1.0, 2.0])).describe()


class TestSampleSortSteps:
    def test_reproducible(self):
        a = _sort_steps_values("snake_1", 6, 10, seed=7)
        b = _sort_steps_values("snake_1", 6, 10, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = _sort_steps_values("snake_1", 8, 10, seed=7)
        b = _sort_steps_values("snake_1", 8, 10, seed=8)
        assert not np.array_equal(a, b)

    def test_batching_does_not_change_distribution(self):
        a = _sort_steps_values("snake_1", 6, 12, seed=3, batch_size=4)
        b = _sort_steps_values("snake_1", 6, 12, seed=3, batch_size=12)
        np.testing.assert_array_equal(a, b)

    def test_zero_one_inputs(self):
        steps = _sort_steps_values("snake_1", 6, 8, seed=1, input_kind="zero_one")
        assert (steps >= 0).all()

    def test_unknown_input_kind(self):
        with pytest.raises(ValueError):
            _sort_steps_values("snake_1", 6, 4, input_kind="gaussians")

    def test_cap_raises(self):
        with pytest.raises(StepLimitExceeded):
            _sort_steps_values("snake_3", 8, 4, max_steps=2)

    def test_all_positive_for_random_perms(self):
        steps = _sort_steps_values("row_major_row_first", 6, 16, seed=5)
        assert (steps > 0).all()


class TestSampleStatistic:
    def test_matches_direct_computation(self):
        from repro.backends import run_steps
        from repro.core.algorithms import get_algorithm
        from repro.randomness import as_generator, random_zero_one_grid

        sample = _statistic_values(
            "snake_1", 6, 5,
            lambda g: np.atleast_1d(np.asarray(z1_statistic(g))),
            seed=11, batch_size=5,
        )
        rng = as_generator(11)
        grids = random_zero_one_grid(6, batch=5, rng=rng)
        after = run_steps("vectorized", get_algorithm("snake_1"), grids, 1)
        np.testing.assert_array_equal(sample, np.asarray(z1_statistic(after)))

    def test_count(self):
        sample = _statistic_values(
            "snake_1", 4, 23,
            lambda g: np.atleast_1d(np.asarray(z1_statistic(g))),
            seed=0, batch_size=7,
        )
        assert sample.shape == (23,)
