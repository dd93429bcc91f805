"""Tests for the exact potential PMFs."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.backends import run_steps
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError
from repro.randomness import random_zero_one_grid
from repro.theory import moments
from repro.theory.chebyshev import theorem3_tail_bound, theorem8_tail_bound
from repro.theory.distributions import (
    block_statistic_pmf,
    indicator_block,
    indicator_sum_pmf,
    lower_tail,
    theorem3_tail_exact,
    theorem8_tail_exact,
    y1_0_snake2_pmf,
    z1_0_snake1_odd_pmf,
    z1_0_snake1_pmf,
    z1_col_first_pmf,
    z1_row_first_pmf,
)
from repro.theory.hypergeom import paper_even_counts, paper_odd_counts
from repro.theory.moments import col_first_block, snake1_z1_blocks, snake2_y1_blocks
from repro.zeroone.trackers import z1_statistic


class TestBlockSpecs:
    def test_indicator_block_patterns_sum(self):
        size, outcomes = indicator_block(3)
        assert size == 3
        assert sum(w for _, w, _ in outcomes) == 2**3

    def test_col_first_block_patterns_sum(self):
        size, outcomes = col_first_block()
        assert size == 4
        assert sum(w for _, w, _ in outcomes) == 16

    def test_indicator_rejects_zero(self):
        with pytest.raises(DimensionError):
            indicator_block(0)


def dp_indicator_pmf(sizes: list[int], zeros: int, cells: int) -> list[Fraction]:
    """Oracle: the block DP over 'holds a zero' indicator blocks."""
    return list(block_statistic_pmf([indicator_block(s) for s in sizes], zeros, cells))


def random_mixes(count: int = 60) -> list[tuple[list[int], int, int]]:
    """Seeded (sizes, zeros, cells) cases with block sizes 1-4, including
    empty and all-zero fills and meshes with no cells outside the blocks."""
    rng = random.Random(2024)
    cases = []
    for i in range(count):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(0, 10))]
        cells = sum(sizes) + (0 if i % 3 == 0 else rng.randint(1, 6))
        zeros = 0 if i % 5 == 0 else cells if i % 5 == 1 else rng.randint(0, cells)
        cases.append((sizes, zeros, cells))
    return cases


class TestIndicatorSumPmf:
    @pytest.mark.parametrize("sizes,zeros,cells", random_mixes())
    def test_equals_block_dp_on_random_mixes(self, sizes, zeros, cells):
        assert list(indicator_sum_pmf(sizes, zeros, cells)) == dp_indicator_pmf(
            sizes, zeros, cells
        )

    def test_mixes_cover_the_edges(self):
        cases = random_mixes()
        assert any(z == 0 for _, z, _ in cases)
        assert any(z == c for _, z, c in cases)
        assert any(sum(s) == c and 0 < z < c for s, z, c in cases)
        assert {1, 2, 3, 4} <= {size for s, _, _ in cases for size in s}

    @pytest.mark.parametrize("side", range(2, 13, 2))
    def test_even_side_potentials_equal_block_dp(self, side):
        zeros, cells = paper_even_counts(side // 2)
        assert list(z1_row_first_pmf(side // 2)) == dp_indicator_pmf(
            [2] * side, zeros, cells
        )
        assert list(z1_0_snake1_pmf(side)) == dp_indicator_pmf(
            snake1_z1_blocks(side), zeros, cells
        )
        assert list(y1_0_snake2_pmf(side)) == dp_indicator_pmf(
            snake2_y1_blocks(side), zeros, cells
        )

    @pytest.mark.parametrize("side", range(3, 13, 2))
    def test_odd_side_potential_equals_block_dp(self, side):
        zeros, cells = paper_odd_counts(side // 2)
        assert list(z1_0_snake1_odd_pmf(side)) == dp_indicator_pmf(
            snake1_z1_blocks(side), zeros, cells
        )

    def test_rejects_bad_input(self):
        with pytest.raises(DimensionError):
            indicator_sum_pmf([0, 2], 1, 4)
        with pytest.raises(DimensionError):
            indicator_sum_pmf([5], 2, 4)
        with pytest.raises(DimensionError):
            indicator_sum_pmf([2], 5, 4)


class TestPmfBasics:
    def test_normalizes(self):
        pmf = z1_row_first_pmf(3)
        assert sum(pmf) == 1

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_moments_match_closed_forms(self, n):
        pmf = z1_row_first_pmf(n)
        mean = sum(x * p for x, p in enumerate(pmf))
        var = sum((x - mean) ** 2 * p for x, p in enumerate(pmf))
        assert mean == moments.e_Z1_row_first(n)
        assert var == moments.var_Z1_row_first(n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_col_first_moments_match(self, n):
        pmf = z1_col_first_pmf(n)
        mean = sum(x * p for x, p in enumerate(pmf))
        var = sum((x - mean) ** 2 * p for x, p in enumerate(pmf))
        assert mean == moments.e_Z1_col_first(n)
        assert var == moments.var_Z1_col_first(n)

    @pytest.mark.parametrize("side", [4, 6, 8])
    def test_snake_moments_match(self, side):
        pmf = z1_0_snake1_pmf(side)
        mean = sum(x * p for x, p in enumerate(pmf))
        var = sum((x - mean) ** 2 * p for x, p in enumerate(pmf))
        assert mean == moments.e_Z1_0_snake1(side)
        assert var == moments.var_Z1_0_snake1(side)

    def test_y_pmf_mean(self):
        pmf = y1_0_snake2_pmf(6)
        mean = sum(x * p for x, p in enumerate(pmf))
        assert mean == moments.e_Y1_0_snake2(6)

    def test_support_bounds(self):
        # Z1 row-first lives on 0..2n
        pmf = z1_row_first_pmf(4)
        assert len(pmf) == 9

    def test_odd_side_rejected(self):
        with pytest.raises(DimensionError):
            z1_0_snake1_pmf(5)

    def test_overfull_blocks_rejected(self):
        with pytest.raises(DimensionError):
            block_statistic_pmf([indicator_block(5)], 2, 4)


class TestPmfAgainstSimulation:
    def test_pmf_matches_empirical_histogram(self, rng):
        """The strongest check: exact PMF vs the simulated statistic."""
        side = 6
        pmf = np.array([float(p) for p in z1_0_snake1_pmf(side)])
        grids = random_zero_one_grid(side, batch=8000, rng=rng)
        after = run_steps("vectorized", get_algorithm("snake_1"), grids, 1)
        values = np.asarray(z1_statistic(after))
        hist = np.bincount(values, minlength=len(pmf)) / len(values)
        assert np.max(np.abs(hist - pmf[: len(hist)])) < 0.02


class TestExactTails:
    def test_lower_tail(self):
        pmf = z1_row_first_pmf(2)
        assert lower_tail(pmf, -1) == 0
        assert lower_tail(pmf, len(pmf)) == 1

    def test_exact_below_chebyshev(self):
        gamma = Fraction(1, 10)
        for side in (8, 12):
            assert theorem3_tail_exact(side, gamma) <= theorem3_tail_bound(side, gamma)
            assert theorem8_tail_exact(side, gamma) <= theorem8_tail_bound(side, gamma)

    def test_exact_tail_decreasing_in_side(self):
        gamma = Fraction(1, 10)
        values = [float(theorem3_tail_exact(side, gamma)) for side in (8, 12, 16)]
        assert values[0] > values[1] > values[2]

    def test_odd_side_rejected(self):
        with pytest.raises(DimensionError):
            theorem3_tail_exact(7, Fraction(1, 10))


class TestOddSideDistribution:
    def test_odd_pmf_mean_matches_lemma14(self):
        from repro.theory.appendix import e_Z1_0_snake1_odd
        from repro.theory.distributions import z1_0_snake1_odd_pmf

        for side in (5, 7):
            pmf = z1_0_snake1_odd_pmf(side)
            mean = sum(x * p for x, p in enumerate(pmf))
            assert mean == e_Z1_0_snake1_odd(side)

    def test_odd_pmf_even_side_rejected(self):
        from repro.theory.distributions import z1_0_snake1_odd_pmf

        with pytest.raises(DimensionError):
            z1_0_snake1_odd_pmf(6)

    def test_theorem13_tail_exact(self):
        from repro.theory.distributions import theorem13_tail_exact

        values = [float(theorem13_tail_exact(side, Fraction(1, 10))) for side in (5, 9, 13)]
        assert all(0 <= v <= 1 for v in values)
        assert values[-1] < values[0]

    def test_theorem13_even_side_rejected(self):
        from repro.theory.distributions import theorem13_tail_exact

        with pytest.raises(DimensionError):
            theorem13_tail_exact(8, Fraction(1, 10))
