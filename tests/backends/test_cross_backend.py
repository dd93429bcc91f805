"""Every registered backend must agree with the vectorized kernels.

These are the shared cross-validation sweeps of the unified API: whatever a
backend does internally (strided NumPy kernels, a pure-Python oracle, a
processor-level machine), ``run_sort`` and
``run_steps`` must produce identical step counts and identical grids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends, run_sort, run_steps
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.errors import StepLimitExceeded
from repro.randomness import random_permutation_grid

BACKENDS = available_backends()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_backends_agree_on_sort(name, backend, rng):
    side = 6
    grid = random_permutation_grid(side, rng=rng)
    schedule = get_algorithm(name)
    expected = run_sort("vectorized", schedule, grid)
    outcome = run_sort(backend, schedule, grid)
    assert outcome.backend == backend
    assert outcome.all_completed
    assert outcome.steps_scalar() == expected.steps_scalar()
    np.testing.assert_array_equal(outcome.final, expected.final)


VALUE_GRIDS = {
    "int64": lambda rng: rng.permutation(np.arange(-8, 8)).reshape(4, 4),
    "int8": lambda rng: rng.integers(0, 2, size=(4, 4), dtype=np.int8),
    "bool": lambda rng: rng.integers(0, 2, size=(4, 4)).astype(bool),
    "float64": lambda rng: rng.random((4, 4)),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", VALUE_GRIDS)
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_backends_keep_values_and_dtype(name, kind, backend, rng):
    """Negative, 0-1, boolean and non-integer grids sort exactly as on the
    kernels, and come back in the caller's dtype."""
    grid = VALUE_GRIDS[kind](rng)
    schedule = get_algorithm(name)
    expected = run_sort("vectorized", schedule, grid)
    outcome = run_sort(backend, schedule, grid)
    assert outcome.steps_scalar() == expected.steps_scalar()
    np.testing.assert_array_equal(outcome.completed, expected.completed)
    assert outcome.final.dtype == grid.dtype == expected.final.dtype
    np.testing.assert_array_equal(outcome.final, expected.final)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_backends_agree_stepwise(name, backend, rng):
    side = 6
    grid = random_permutation_grid(side, rng=rng)
    schedule = get_algorithm(name)
    for t in (1, 2, 3, 4, 7, 12):
        np.testing.assert_array_equal(
            run_steps(backend, schedule, grid, t),
            run_steps("vectorized", schedule, grid, t),
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_sorted_input_reports_zero_steps(backend):
    schedule = get_algorithm("row_major_row_first")
    target = np.arange(16, dtype=np.int64).reshape(4, 4)
    outcome = run_sort(backend, schedule, target)
    assert outcome.steps_scalar() == 0
    assert outcome.all_completed
    np.testing.assert_array_equal(outcome.final, target)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cap_behaviour_is_uniform(backend, rng):
    schedule = get_algorithm("snake_1")
    grid = random_permutation_grid(6, rng=rng)
    outcome = run_sort(backend, schedule, grid, max_steps=1)
    assert not outcome.all_completed
    assert outcome.steps_scalar() == -1
    with pytest.raises(StepLimitExceeded):
        run_sort(backend, schedule, grid, max_steps=1, raise_on_cap=True)


@pytest.mark.parametrize("backend", ["reference", "mesh"])
@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("dtype", [np.int64, np.int8])
def test_cell_level_batches_match_per_grid_runs(backend, capped, dtype, rng):
    """A batch on the cell-level backends gives each grid's own steps,
    completion and final grid, in the caller's dtype and batch shape; a
    cap below the slowest grid leaves it unsorted (steps -1) and
    ``raise_on_cap`` counts the unsorted grids."""
    schedule = get_algorithm("row_major_col_first")
    grids = random_permutation_grid(6, batch=(2, 3), rng=rng).astype(dtype)
    max_steps = None
    if capped:
        max_steps = int(run_sort("vectorized", schedule, grids).steps.max()) - 1
    batched = run_sort(backend, schedule, grids, max_steps=max_steps)
    assert batched.steps.shape == batched.completed.shape == (2, 3)
    assert batched.final.shape == grids.shape
    assert batched.final.dtype == grids.dtype
    for index in np.ndindex(2, 3):
        single = run_sort(backend, schedule, grids[index], max_steps=max_steps)
        assert batched.steps[index] == single.steps_scalar()
        assert batched.completed[index] == single.all_completed
        np.testing.assert_array_equal(batched.final[index], single.final)
    expected = run_sort("vectorized", schedule, grids, max_steps=max_steps)
    np.testing.assert_array_equal(batched.steps, expected.steps)
    np.testing.assert_array_equal(batched.final, expected.final)
    unsorted = int(np.sum(~batched.completed))
    if not capped:
        assert unsorted == 0
    else:
        assert 0 < unsorted < 6
        with pytest.raises(StepLimitExceeded) as excinfo:
            run_sort(backend, schedule, grids, max_steps=max_steps, raise_on_cap=True)
        assert excinfo.value.unfinished == unsorted


def test_batch_backends_match_per_grid_runs(rng):
    schedule = get_algorithm("snake_2")
    grids = random_permutation_grid(6, batch=5, rng=rng)
    batched = run_sort("vectorized", schedule, grids)
    assert batched.steps.shape == (5,)
    for i in range(5):
        single = run_sort("vectorized", schedule, grids[i])
        assert batched.steps[i] == single.steps_scalar()
        np.testing.assert_array_equal(batched.final[i], single.final)
