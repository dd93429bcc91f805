"""Tests for the lemma checkers and the lemmas themselves on real traces."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import iter_run, run_steps
from repro.core.algorithms import get_algorithm
from repro.randomness import random_zero_one_grid
from repro.zeroone.invariants import (
    check_lemma1_column_sort,
    check_lemma2_odd_row_sort,
    check_lemma3_even_row_sort,
    check_lemma10,
    check_lemmas_5_to_8,
    y_sequence,
    z_sequence,
)


def _zero_one(side: int, seed: int) -> np.ndarray:
    return random_zero_one_grid(side, rng=seed)


class TestRowMajorLemmas:
    @given(seed=st.integers(0, 2**31), side=st.sampled_from([4, 6, 8]))
    @settings(max_examples=20)
    def test_lemmas_1_to_3_hold_on_traces(self, seed, side):
        grid = _zero_one(side, seed)
        checkers = {
            1: check_lemma2_odd_row_sort,
            2: check_lemma1_column_sort,
            3: check_lemma3_even_row_sort,
            0: check_lemma1_column_sort,
        }
        prev = grid
        for t, snap in iter_run("vectorized", get_algorithm("row_major_row_first"), grid, 4 * side):
            assert checkers[t % 4](prev, snap) == []
            prev = snap

    def test_lemma1_detects_weight_change(self):
        before = np.array([[0, 1], [1, 1]])
        after = np.array([[1, 1], [1, 1]])
        assert check_lemma1_column_sort(before, after)

    def test_lemma2_detects_untravelled_zero(self):
        # zero in even column stays put -> violation of the travel fact
        before = np.array([[1, 0], [1, 1]])
        after = np.array([[1, 0], [1, 1]])
        assert check_lemma2_odd_row_sort(before, after)

    def test_lemma2_passes_on_actual_step(self):
        before = np.array([[1, 0], [1, 1]])
        after = run_steps("vectorized", get_algorithm("row_major_row_first"), before, 1)
        assert check_lemma2_odd_row_sort(before, after) == []

    def test_lemma3_boundary_slack(self):
        """Lemma 3 allows the wrap to lose one zero from column 1 exactly
        when D_1^1 = 0 and D_{2n}^{2n} = 1."""
        side = 4
        grid = np.ones((side, side), dtype=np.int8)
        grid[0, 0] = 0  # the zero at (1,1) is not wrapped anywhere
        # run steps 1..3 so step 3 is the even row sort + wrap
        prev = run_steps("vectorized", get_algorithm("row_major_row_first"), grid, 2)
        after = run_steps("vectorized", get_algorithm("row_major_row_first"), grid, 3)
        assert check_lemma3_even_row_sort(prev, after) == []


class TestSnakeChains:
    @given(seed=st.integers(0, 2**31), side=st.sampled_from([4, 6, 8, 5, 7]))
    @settings(max_examples=20)
    def test_lemmas_5_to_8(self, seed, side):
        grid = _zero_one(side, seed)
        trace = [s for _, s in iter_run("vectorized", get_algorithm("snake_1"), grid, 8 * side)]
        assert check_lemmas_5_to_8(trace) == []

    @given(seed=st.integers(0, 2**31), side=st.sampled_from([4, 6, 8]))
    @settings(max_examples=20)
    def test_lemma_10(self, seed, side):
        grid = _zero_one(side, seed)
        trace = [s for _, s in iter_run("vectorized", get_algorithm("snake_2"), grid, 8 * side)]
        assert check_lemma10(trace) == []

    def test_z_sequence_loses_at_most_one_per_cycle(self, rng):
        """Theorem 6's engine: Z1(i+1) >= Z1(i) - 1."""
        grid = random_zero_one_grid(8, rng=rng)
        trace = [s for _, s in iter_run("vectorized", get_algorithm("snake_1"), grid, 64)]
        seq = z_sequence(trace)
        z1_values = seq[0::4]
        for a, b in zip(z1_values, z1_values[1:]):
            assert b >= a - 1

    def test_y_sequence_loses_at_most_one_per_cycle(self, rng):
        grid = random_zero_one_grid(8, rng=rng)
        trace = [s for _, s in iter_run("vectorized", get_algorithm("snake_2"), grid, 64)]
        seq = y_sequence(trace)
        y1_values = seq[0::4]
        for a, b in zip(y1_values, y1_values[1:]):
            assert b >= a - 1

    def test_chain_checker_detects_violation(self):
        """Feed the checker a fake trace that drops potential too fast."""
        lo = np.ones((4, 4), dtype=np.int8)
        hi = np.zeros((4, 4), dtype=np.int8)
        # Z stats of hi are large, of lo are zero: ordering hi, lo violates
        assert check_lemmas_5_to_8([hi, lo, lo, lo]) != []


class TestAppendixOddSideChains:
    """The appendix's claim that the Z analysis transfers to odd side — for
    both snake_1 (Definitions 12-13) and snake_2 ("the same definitions and
    theorems with some minor variations in the proofs")."""

    @given(seed=st.integers(0, 2**31), side=st.sampled_from([5, 7, 9]))
    @settings(max_examples=15)
    def test_snake1_odd_side_z_chain(self, seed, side):
        grid = _zero_one(side, seed)
        trace = [s for _, s in iter_run("vectorized", get_algorithm("snake_1"), grid, 8 * side)]
        assert check_lemmas_5_to_8(trace) == []

    @given(seed=st.integers(0, 2**31), side=st.sampled_from([5, 7, 9]))
    @settings(max_examples=15)
    def test_snake2_odd_side_z_chain(self, seed, side):
        grid = _zero_one(side, seed)
        trace = [s for _, s in iter_run("vectorized", get_algorithm("snake_2"), grid, 8 * side)]
        assert check_lemmas_5_to_8(trace) == []
