"""Keeps docs/EXTENDING.md honest: the worked example must actually work."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import check_schedule
from repro.backends import run_sort, run_steps
from repro.core.orders import target_grid
from repro.core.phases import (
    col_even_bubble,
    col_odd_bubble,
    row_even_bubble,
    row_even_reverse,
    row_odd_bubble,
    row_odd_reverse,
)
from repro.core.schedule import Schedule, Step, lower
from repro.randomness import random_permutation_grid


def snake_column_first() -> Schedule:
    """The sixth algorithm from docs/EXTENDING.md."""
    return Schedule(
        name="snake_column_first",
        steps=(
            Step(col_odd_bubble()),
            Step(row_odd_bubble("odd"), row_even_reverse("even")),
            Step(col_even_bubble()),
            Step(row_even_bubble("odd"), row_odd_reverse("even")),
        ),
        order="snake",
        requires_even_side=False,
    )


class TestExtendingExample:
    def test_validates(self):
        lower(snake_column_first(), 8, 8)
        assert check_schedule(snake_column_first(), 8).oblivious

    def test_exhaustive_zero_one_4x4(self):
        bits = ((np.arange(65536)[:, None] >> np.arange(16)) & 1).astype(np.int8)
        out = run_sort("vectorized", snake_column_first(), bits.reshape(-1, 4, 4))
        assert out.all_completed

    @pytest.mark.parametrize("side", [4, 6, 7, 9])
    def test_sorts_random_permutations(self, side, rng):
        grids = random_permutation_grid(side, batch=10, rng=rng)
        out = run_sort("vectorized", snake_column_first(), grids)
        assert out.all_completed

    def test_sorted_fixed_point(self):
        side = 6
        tgt = target_grid(np.arange(side * side), side, "snake")
        after = run_steps("vectorized", snake_column_first(), tgt, 4 * side)
        np.testing.assert_array_equal(after, tgt)

    def test_composes_with_harness(self, rng):
        from repro.backends import step_cap
        from repro.core.metrics import schedule_metrics
        from repro.experiments import sample
        from repro.mesh.machine import mesh_sort

        steps = sample(snake_column_first(), side=6, trials=4, seed=0).values
        assert (steps > 0).all()
        m = schedule_metrics(snake_column_first(), 6)
        assert m.comparators_per_cycle > 0
        grid = random_permutation_grid(6, rng=rng)
        t, _ = mesh_sort(snake_column_first(), grid, max_steps=step_cap(6))
        assert t == run_sort("vectorized", snake_column_first(), grid).steps_scalar()
