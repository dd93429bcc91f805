"""Direct Theorem 1 verification on live traces.

Theorem 1 states: for a mesh with alpha zeroes, if after *some odd row
sorting step* an odd-numbered column holds ``x > ceil(alpha/sqrt(N))``
zeroes, at least ``(x - ceil(alpha/sqrt(N)) - 1) * 2 sqrt(N)`` additional
steps are needed; symmetrically for an even-numbered column with weight
``y > ceil((N-alpha)/sqrt(N))``.

These tests measure the surplus after *every* odd row sorting step of real
runs (both row-major algorithms, several zero counts) and assert the bound
against the realized completion time — the sharpest trace-level exercise of
Section 2's travel machinery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import iter_run, step_cap
from repro.core.algorithms import get_algorithm
from repro.core.orders import target_grid
from repro.randomness import random_zero_one_grid
from repro.theory.bounds import theorem1_additional_steps
from repro.zeroone.weights import even_column_weights, odd_column_zeros


def _odd_row_sort_times(algorithm: str, num_cycles: int) -> list[int]:
    """1-based times of the odd row sorting steps in the first cycles."""
    offset = 1 if algorithm == "row_major_row_first" else 2
    return [4 * i + offset for i in range(num_cycles)]


@pytest.mark.parametrize("algorithm", ["row_major_row_first", "row_major_col_first"])
@pytest.mark.parametrize("side", [6, 8])
@pytest.mark.parametrize("alpha_frac", [0.25, 0.5, 0.75])
def test_theorem1_bound_along_traces(algorithm, side, alpha_frac, rng):
    schedule = get_algorithm(algorithm)
    n_cells = side * side
    alpha = int(n_cells * alpha_frac)
    for _ in range(5):
        grid = random_zero_one_grid(side, zeros=alpha, rng=rng)
        target = target_grid(grid, side, "row_major")
        # First find t_f.
        t_f = 0
        if not np.array_equal(grid, target):
            for t, work in iter_run("vectorized", schedule, grid, step_cap(side)):
                if np.array_equal(work, target):
                    t_f = t
                    break
            else:
                pytest.fail("run did not complete within the cap")
        # Replay, checking the surplus bound after each odd row sort.
        odd_row_times = set(_odd_row_sort_times(algorithm, t_f // 4 + 2))
        for t, work in iter_run("vectorized", schedule, grid, t_f):
            if t not in odd_row_times:
                continue
            x = int(odd_column_zeros(work).max())
            bound_zeros = theorem1_additional_steps(x, alpha, side, kind="zeros")
            y = int(even_column_weights(work).max())
            bound_ones = theorem1_additional_steps(y, alpha, side, kind="ones")
            remaining = t_f - t
            assert remaining >= bound_zeros, (
                f"t={t}, x={x}: remaining {remaining} < bound {bound_zeros}"
            )
            assert remaining >= bound_ones, (
                f"t={t}, y={y}: remaining {remaining} < bound {bound_ones}"
            )


def test_theorem1_bound_is_attained_to_within_slack(rng):
    """On the all-zero-column input the bound is near-tight (Corollary 1)."""
    from repro.schedules import smallest_column_adversary
    from repro.zeroone.threshold import threshold_matrix
    from repro.backends import run_sort

    side = 8
    adversary = threshold_matrix(smallest_column_adversary(side), side)
    out = run_sort("vectorized", get_algorithm("row_major_row_first"), adversary)
    # alpha = side zeroes all in one column: x = side after the first odd
    # row sort is impossible (they travel), but Corollary 1's 2N - 4*sqrt(N)
    # must hold and the realized time must not exceed ~2N.
    t_f = out.steps_scalar()
    assert 2 * side * side - 4 * side <= t_f <= 2 * side * side + 4 * side
