"""The shared driver: outcomes, event stream, caps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends, get_backend, iter_run, run_sort, run_steps, step_cap
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError
from repro.randomness import random_permutation_grid
from tests.backends.numpy_lanes import NUMPY_PARAM

BACKENDS = [*available_backends(), NUMPY_PARAM]


def test_step_cap_matches_historical_square_cap():
    for side in (4, 6, 8, 16, 32):
        assert step_cap(side) == 8 * side * side + 16 * side + 64
        assert step_cap(side, side) == step_cap(side)


def test_step_cap_rectangular():
    assert step_cap(4, 8) == 8 * 32 + 8 * 12 + 64


@pytest.mark.parametrize("backend", BACKENDS)
def test_outcome_carries_mesh_shape_and_backend(backend, rng):
    grid = rng.permutation(12).reshape(3, 4)
    outcome = run_sort(backend, get_algorithm("snake_1"), grid)
    assert (outcome.rows, outcome.cols) == (3, 4)
    assert outcome.backend == get_backend(backend).name


def test_steps_scalar_raises_on_batch(rng):
    grids = random_permutation_grid(4, batch=2, rng=rng)
    outcome = run_sort("vectorized", get_algorithm("snake_1"), grids)
    with pytest.raises(DimensionError):
        outcome.steps_scalar()


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_start_carries_mesh_shape(backend, rng):
    from repro.obs.events import RecordingObserver

    rec = RecordingObserver()
    grid = random_permutation_grid(6, rng=rng)
    run_sort(backend, get_algorithm("snake_1"), grid, observer=rec)
    assert len(rec.run_starts) == 1
    start = rec.run_starts[0]
    assert (start.rows, start.cols) == (6, 6)
    # A trace names the backend one would pass to --backend.
    assert start.executor == get_backend(backend).name
    assert len(rec.run_ends) == 1
    end = rec.run_ends[0]
    # An unbatched run reports plain scalars on every backend.
    assert end.completed is True
    assert type(end.steps) is int and end.steps == rec.steps[-1].t


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_end_carries_arrays_for_a_batch(backend, rng):
    from repro.obs.events import RecordingObserver

    rec = RecordingObserver()
    grids = random_permutation_grid(4, batch=3, rng=rng)
    outcome = run_sort(backend, get_algorithm("snake_1"), grids, observer=rec)
    end = rec.run_ends[0]
    np.testing.assert_array_equal(end.steps, outcome.steps)
    np.testing.assert_array_equal(end.completed, [True, True, True])


def test_run_sort_defaults_cap_from_mesh_shape(rng):
    grid = random_permutation_grid(6, rng=rng)
    outcome = run_sort("vectorized", get_algorithm("snake_1"), grid)
    assert outcome.max_steps == step_cap(6)


def test_iter_run_yields_snapshots(rng):
    grid = random_permutation_grid(6, rng=rng)
    schedule = get_algorithm("snake_1")
    seen = []
    for t, state in iter_run("vectorized", schedule, grid, 4):
        seen.append((t, state.copy()))
    assert [t for t, _ in seen] == [1, 2, 3, 4]
    for t, state in seen:
        np.testing.assert_array_equal(
            state, run_steps("vectorized", schedule, grid, t)
        )


def test_iter_run_yields_independent_buffers(rng):
    grid = random_permutation_grid(6, rng=rng)
    schedule = get_algorithm("snake_1")
    buffers = [state for _, state in iter_run("vectorized", schedule, grid, 3)]
    assert not np.shares_memory(buffers[0], buffers[1])
    assert not np.shares_memory(buffers[1], buffers[2])


@pytest.mark.parametrize("backend", BACKENDS)
def test_observed_steps_copy_the_grid_out_once(backend, rng, monkeypatch):
    """A cycle boundary's event shares its step's grid: one copy per step,
    plus one at run start that the first step's swap count diffs against."""
    from repro.backends import get_backend
    from repro.obs.events import RecordingObserver

    schedule = get_algorithm("snake_1")
    grid = random_permutation_grid(4, rng=rng)
    run_cls = type(get_backend(backend).prepare(schedule, grid))
    calls = []
    original = run_cls.materialize

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(run_cls, "materialize", counting)
    rec = RecordingObserver()
    run_steps(backend, schedule, grid, 8, observer=rec)
    assert len(rec.steps) == 8 and len(rec.cycles) == 2
    assert len(calls) == 1 + 8 + 1  # run start, one per observed step, the final grid
    for cycle in rec.cycles:
        assert cycle.grid is rec.steps[cycle.t - 1].grid
