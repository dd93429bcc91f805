"""Every registered backend must agree with the vectorized backend.

These are the shared cross-validation sweeps of the unified API: whatever a
backend does internally (NumPy or C lane engines, a pure-Python oracle, a
processor-level machine), ``run_sort`` and
``run_steps`` must produce identical step counts and identical grids.
The sweeps also run the test-local ``numpy-lanes`` backend, so integer
grids, which ``vectorized`` steps in C where the library builds, are
held against the NumPy engine too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.backends import available_backends, get_backend, run_sort, run_steps
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.errors import StepLimitExceeded
from repro.randomness import random_permutation_grid
from tests.backends.numpy_lanes import NUMPY_PARAM

BACKENDS = [*available_backends(), NUMPY_PARAM]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_backends_agree_on_sort(name, backend, rng):
    side = 6
    grid = random_permutation_grid(side, rng=rng)
    schedule = get_algorithm(name)
    expected = run_sort("vectorized", schedule, grid)
    outcome = run_sort(backend, schedule, grid)
    assert outcome.backend == get_backend(backend).name
    assert outcome.all_completed
    assert outcome.steps_scalar() == expected.steps_scalar()
    np.testing.assert_array_equal(outcome.final, expected.final)


def _with_infinities(grid: np.ndarray) -> np.ndarray:
    grid[0, 3], grid[2, 1], grid[3, 0] = np.inf, -np.inf, -np.inf
    return grid


VALUE_GRIDS = {
    "int64": lambda rng: rng.permutation(np.arange(-8, 8)).reshape(4, 4),
    # Outside int16 (int32 lanes), and outside int32 (the grid's own dtype).
    "int64_past_int16": lambda rng: rng.permutation(np.arange(-8, 8)).reshape(4, 4) * 5000,
    "int64_past_int32": lambda rng: rng.permutation(np.arange(-8, 8)).reshape(4, 4) * 2**40,
    "int8": lambda rng: rng.integers(0, 2, size=(4, 4), dtype=np.int8),
    "uint8": lambda rng: rng.integers(0, 2, size=(4, 4), dtype=np.uint8),
    "bool": lambda rng: rng.integers(0, 2, size=(4, 4)).astype(bool),
    "float64": lambda rng: rng.random((4, 4)),
    "float64_inf": lambda rng: _with_infinities(rng.random((4, 4))),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", VALUE_GRIDS)
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_backends_keep_values_and_dtype(name, kind, backend, rng):
    """Negative, wide, 0-1, boolean and non-integer (infinite included)
    grids sort exactly as on ``vectorized``, and come back in the caller's
    dtype."""
    grid = VALUE_GRIDS[kind](rng)
    schedule = get_algorithm(name)
    expected = run_sort("vectorized", schedule, grid)
    outcome = run_sort(backend, schedule, grid)
    assert outcome.steps_scalar() == expected.steps_scalar()
    np.testing.assert_array_equal(outcome.completed, expected.completed)
    assert outcome.final.dtype == grid.dtype == expected.final.dtype
    np.testing.assert_array_equal(outcome.final, expected.final)


def _nan_grids() -> np.ndarray:
    grids = np.random.default_rng(2024).permutation(32).astype(np.float64).reshape(2, 4, 4)
    grids[0, 1, 2] = grids[1, 3, 3] = np.nan
    grids[:, 3, 0] = -np.inf
    grids[:, 0, 3] = np.inf
    return grids


# blake2b-64 digests of two NaN grids after steps 1, 2 and 3, and after a
# sort capped at 3 steps, as the strided-slice kernels computed them:
# np.minimum/np.maximum spread a NaN to both cells of its comparators.
NAN_DIGESTS = {
    "row_major_row_first": ["f3c5569151ab3511", "32802ba4bc7b295b", "2a5a9624db70e823"],
    "row_major_col_first": ["70dd4d4d3ad1a9ca", "0200a12491b14b87", "cb5feb7ec46dabec"],
    "snake_1": ["9b647d2ce0fa1471", "e8c3a892801ab48f", "9ab44572bcaff5df"],
    "snake_2": ["9b647d2ce0fa1471", "b7db224eb2adc97a", "3c951981b1d24a84"],
    "snake_3": ["b90cd4ae593a7a2d", "dcd16da49dbbc291", "04c4435e6534a492"],
}


def _digest(grid: np.ndarray) -> str:
    return hashlib.blake2b(grid.tobytes(), digest_size=8).hexdigest()


@pytest.mark.parametrize("backend", ["vectorized", NUMPY_PARAM])
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_nan_grids_keep_numpy_min_max_semantics(name, backend):
    schedule = get_algorithm(name)
    stepped = [_digest(run_steps(backend, schedule, _nan_grids(), t)) for t in (1, 2, 3)]
    assert stepped == NAN_DIGESTS[name]
    outcome = run_sort(backend, schedule, _nan_grids(), max_steps=3)
    np.testing.assert_array_equal(outcome.steps, [-1, -1])
    assert _digest(outcome.final) == NAN_DIGESTS[name][-1]


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
