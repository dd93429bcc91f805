"""End-to-end sorting correctness for all five algorithms.

Includes the strongest available check: by the 0-1 principle for oblivious
comparison-exchange procedures, exhaustively sorting *every* 0-1 matrix on a
4x4 mesh (all 65536 of them, batched) certifies the schedules on all inputs
of that size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_sort, run_steps, step_cap
from repro.core.algorithms import ALGORITHM_NAMES, SNAKE_NAMES, get_algorithm
from repro.core.orders import is_sorted_grid, target_grid
from repro.randomness import random_permutation_grid, random_zero_one_grid


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_exhaustive_zero_one_4x4(name):
    """Every 0-1 input on the 4x4 mesh sorts within the step cap."""
    bits = ((np.arange(65536)[:, None] >> np.arange(16)) & 1).astype(np.int8)
    grids = bits.reshape(-1, 4, 4)
    out = run_sort("vectorized", get_algorithm(name), grids, max_steps=step_cap(4))
    assert out.all_completed


@pytest.mark.parametrize("name", SNAKE_NAMES)
def test_exhaustive_zero_one_3x3(name):
    grids = ((np.arange(512)[:, None] >> np.arange(9)) & 1).astype(np.int8).reshape(-1, 3, 3)
    out = run_sort("vectorized", get_algorithm(name), grids, max_steps=step_cap(3))
    assert out.all_completed


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
@pytest.mark.parametrize("side", [4, 6, 8])
def test_random_permutations_sort(name, side, rng):
    grids = random_permutation_grid(side, batch=20, rng=rng)
    out = run_sort("vectorized", get_algorithm(name), grids)
    assert out.all_completed
    assert is_sorted_grid(out.final, get_algorithm(name).order).all()


@pytest.mark.parametrize("name", SNAKE_NAMES)
@pytest.mark.parametrize("side", [5, 7, 9])
def test_random_permutations_sort_odd_side(name, side, rng):
    grids = random_permutation_grid(side, batch=20, rng=rng)
    out = run_sort("vectorized", get_algorithm(name), grids)
    assert out.all_completed


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_sorted_grid_is_fixed_point(name, rng):
    """Once sorted, every further step leaves the grid unchanged — the
    property that makes first-hit completion detection exact."""
    side = 6
    schedule = get_algorithm(name)
    tgt = target_grid(np.arange(side * side), side, schedule.order)
    after = run_steps("vectorized", schedule, tgt, 4 * side)
    np.testing.assert_array_equal(after, tgt)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_zero_one_fixed_point_with_ties(name, rng):
    side = 6
    schedule = get_algorithm(name)
    grid01 = random_zero_one_grid(side, rng=rng)
    tgt = target_grid(grid01, side, schedule.order)
    after = run_steps("vectorized", schedule, tgt, 4 * side)
    np.testing.assert_array_equal(after, tgt)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_multiset_preserved(name, rng):
    """Comparator networks permute values; nothing is created or lost."""
    side = 8
    grid = random_permutation_grid(side, rng=rng)
    after = run_steps("vectorized", get_algorithm(name), grid, 17)
    assert sorted(after.ravel().tolist()) == sorted(grid.ravel().tolist())


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_steps_scale_linearly(name, rng):
    """Theta(N) average: mean steps at side 12 is close to (12/8)^2 x the
    mean at side 8 (loose factor check, the experiments do it properly)."""
    means = {}
    for side in (8, 12):
        grids = random_permutation_grid(side, batch=24, rng=rng)
        out = run_sort("vectorized", get_algorithm(name), grids)
        means[side] = float(np.mean(out.steps))
    ratio = means[12] / means[8]
    expected = (12 * 12) / (8 * 8)
    assert 0.55 * expected <= ratio <= 1.45 * expected


def test_worst_case_within_engine_cap(rng):
    """The generous default cap holds even for adversarial inputs."""
    from repro.schedules import smallest_column_adversary

    for name in ALGORITHM_NAMES:
        adversary = smallest_column_adversary(8).astype(np.int64)
        out = run_sort("vectorized", get_algorithm(name), adversary)
        assert out.all_completed
