"""Tests for the snake_3 smallest-element walk (Lemmas 12-13, 15-16, Thm 12)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import step_cap
from repro.core.orders import rank_of_position
from repro.errors import DimensionError
from repro.randomness import random_permutation_grid
from repro.zeroone.smallest import (
    min_cell,
    min_trajectory,
    predicted_cell_after_pair,
    predicted_walk,
    snake_rank_of_min,
    steps_lower_bound_from_rank,
    steps_until_min_home,
    theorem12_tail_bound,
)


class TestMinCell:
    def test_basic(self):
        grid = np.array([[5, 2], [1, 9]])
        assert min_cell(grid) == (1, 0)

    def test_rank(self):
        grid = np.array([[5, 2], [1, 9]])
        # (1,0) in snake order on side 2: row 1 reversed -> rank 3
        assert snake_rank_of_min(grid) == 3

    def test_rejects_batch(self):
        with pytest.raises(DimensionError):
            min_cell(np.zeros((2, 3, 3)))


class TestPredictedWalk:
    @given(
        side=st.sampled_from([4, 6, 8, 5, 7, 9]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25)
    def test_predicted_matches_actual_until_home(self, side, seed):
        grid = random_permutation_grid(side, rng=seed)
        start = min_cell(grid)
        pairs = 2 * side * side + 4
        actual = min_trajectory("snake_3", grid, pairs)
        predicted = predicted_walk(start, side, pairs)
        for a, p in zip(actual, predicted):
            assert a == p
            if p == (0, 0):
                break

    @given(side=st.sampled_from([4, 6, 5, 7]), seed=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_rank_monotone_lemmas(self, side, seed):
        """Odd pairs: rank stays or -1; even pairs: exactly -1 (until home)."""
        grid = random_permutation_grid(side, rng=seed)
        start_rank = rank_of_position(*min_cell(grid), side, "snake")
        walk = predicted_walk(min_cell(grid), side, 2 * side * side)
        ranks = [start_rank] + [rank_of_position(r, c, side, "snake") for r, c in walk]
        for i, (a, b) in enumerate(zip(ranks, ranks[1:])):
            if a == 0:
                assert b == 0
                continue
            if i % 2 == 0:  # odd pair
                assert b in (a, a - 1)
            else:  # even pair: exactly one step back along the snake
                assert b == a - 1

    def test_even_pair_requires_aligned_parity(self):
        with pytest.raises(DimensionError):
            predicted_cell_after_pair((0, 1), 4, 1)

    def test_home_is_absorbing(self):
        assert predicted_cell_after_pair((0, 0), 4, 0) == (0, 0)
        assert predicted_cell_after_pair((0, 0), 4, 1) == (0, 0)

    def test_out_of_range_cell(self):
        with pytest.raises(DimensionError):
            predicted_cell_after_pair((4, 0), 4, 0)


class TestTheorem12:
    def test_lower_bound_values(self):
        assert steps_lower_bound_from_rank(1) == 0
        assert steps_lower_bound_from_rank(2) == 1
        assert steps_lower_bound_from_rank(10) == 17

    def test_bound_rejects_zero(self):
        with pytest.raises(DimensionError):
            steps_lower_bound_from_rank(0)

    @given(side=st.sampled_from([4, 6, 5]), seed=st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_sort_time_dominates_2m_minus_3(self, side, seed):
        from repro.backends import run_sort
        from repro.core.algorithms import get_algorithm

        grid = random_permutation_grid(side, rng=seed)
        m = rank_of_position(*min_cell(grid), side, "snake") + 1
        out = run_sort("vectorized", get_algorithm("snake_3"), grid)
        assert out.steps_scalar() >= steps_lower_bound_from_rank(m)

    def test_tail_bound_values(self):
        assert theorem12_tail_bound(0.5, 64) == 0.25 + 0.5 / 128  # repro: allow=RPR106
        assert theorem12_tail_bound(0.0, 64) == 0.0  # repro: allow=RPR106

    def test_tail_bound_rejects_negative(self):
        with pytest.raises(DimensionError):
            theorem12_tail_bound(-0.1, 64)


class TestMinHome:
    def test_home_when_already_there(self):
        grid = np.arange(16).reshape(4, 4)
        assert steps_until_min_home("snake_1", grid, max_steps=10) == 0

    def test_snake3_slower_than_snake1(self, rng):
        """The paper's closing contrast, in expectation over a few trials."""
        side = 10
        totals = {"snake_1": 0, "snake_3": 0}
        for _ in range(10):
            grid = random_permutation_grid(side, rng=rng)
            for name in totals:
                t = steps_until_min_home(name, grid, max_steps=step_cap(side))
                assert t >= 0
                totals[name] += t
        assert totals["snake_3"] > totals["snake_1"]

    def test_cap_returns_minus_one(self, rng):
        grid = random_permutation_grid(8, rng=rng)
        if min_cell(grid) != (0, 0):
            assert steps_until_min_home("snake_3", grid, max_steps=1) == -1


class TestPredictedMinHomeSteps:
    def test_home_is_zero(self):
        from repro.zeroone.smallest import predicted_min_home_steps

        assert predicted_min_home_steps((0, 0), 6) == 0

    def test_rank1_cell_is_one_step(self):
        from repro.zeroone.smallest import predicted_min_home_steps

        # (0,1) -> (0,0) happens at step 1 (odd pair, Lemma 12 case 3)
        assert predicted_min_home_steps((0, 1), 6) == 1

    @given(side=st.sampled_from([4, 6, 5, 7]), seed=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_exact_against_live_run(self, side, seed):
        from repro.backends import step_cap
        from repro.zeroone.smallest import predicted_min_home_steps

        rng = np.random.default_rng(seed)
        grid = random_permutation_grid(side, rng=rng)
        pred = predicted_min_home_steps(min_cell(grid), side)
        actual = steps_until_min_home(
            "snake_3", grid, max_steps=step_cap(side)
        )
        assert pred == actual

    def test_dominates_theorem12_bound(self):
        from repro.core.orders import rank_of_position
        from repro.zeroone.smallest import predicted_min_home_steps

        side = 8
        for r in range(side):
            for c in range(side):
                m = rank_of_position(r, c, side, "snake") + 1
                assert predicted_min_home_steps((r, c), side) >= max(2 * m - 3, 0)


class TestExpectedMinHome:
    """Exact closed form discovered from the deterministic walk:
    E[T_home] = N - 1 exactly at odd side, N - 1 - 1/N at even side."""

    @pytest.mark.parametrize("side", [5, 7, 9, 11])
    def test_odd_side_closed_form(self, side):
        from repro.zeroone.smallest import expected_min_home_steps

        n = side * side
        assert expected_min_home_steps(side) == pytest.approx(n - 1, abs=1e-9)

    @pytest.mark.parametrize("side", [4, 6, 10, 12])
    def test_even_side_closed_form(self, side):
        from repro.zeroone.smallest import expected_min_home_steps

        n = side * side
        assert expected_min_home_steps(side) == pytest.approx(n - 1 - 1 / n, abs=1e-9)
