"""Cross-validation: vectorized engine vs pure-Python oracle vs mesh machine.

All executors interpret the same schedule IR; on identical inputs they must
agree cell-for-cell after every step and report identical completion times.
The property test sweeps every backend registered in the unified backend
layer (``repro.backends``), so a newly registered backend is automatically
cross-validated against the vectorized kernels, plus the test-local
``numpy-lanes`` backend (the NumPy lane engine).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import available_backends, run_sort, run_steps, step_cap
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.core.reference import ReferenceMachine
from repro.mesh.machine import MeshMachine, mesh_sort
from repro.randomness import random_permutation_grid
from tests.backends.numpy_lanes import NUMPY_PARAM

BACKENDS = [*available_backends(), NUMPY_PARAM]


def _grid_for(name: str, side: int, seed: int) -> np.ndarray:
    return random_permutation_grid(side, rng=seed)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_numpy_vs_reference_stepwise(name, rng):
    side = 6
    grid = random_permutation_grid(side, rng=rng)
    ref = ReferenceMachine(get_algorithm(name), grid)
    for t in range(1, 25):
        ref.step()
        vec = run_steps("vectorized", get_algorithm(name), grid, t)
        np.testing.assert_array_equal(ref.as_array(), vec)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_numpy_vs_mesh_machine_stepwise(name, rng):
    side = 6
    grid = random_permutation_grid(side, rng=rng)
    machine = MeshMachine(get_algorithm(name), grid)
    for t in range(1, 25):
        machine.step()
        vec = run_steps("vectorized", get_algorithm(name), grid, t)
        np.testing.assert_array_equal(machine.as_array(), vec)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    name=st.sampled_from(ALGORITHM_NAMES),
    side=st.sampled_from([4, 5, 6]),
    seed=st.integers(min_value=0, max_value=2**31),
    steps=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=30)
def test_engines_agree_property(backend, name, side, seed, steps):
    schedule = get_algorithm(name)
    if schedule.requires_even_side and side % 2:
        side += 1
    grid = _grid_for(name, side, seed)
    out = run_steps(backend, schedule, grid, steps)
    vec = run_steps("vectorized", schedule, grid, steps)
    np.testing.assert_array_equal(out, vec)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_completion_times_agree(name, rng):
    side = 6
    grid = random_permutation_grid(side, rng=rng)
    cap = step_cap(side)
    schedule = get_algorithm(name)
    t_vec = run_sort("vectorized", schedule, grid).steps_scalar()
    t_ref = run_sort(
        "reference", schedule, grid, max_steps=cap, raise_on_cap=True
    ).steps_scalar()
    t_mesh, _ = mesh_sort(schedule, grid, max_steps=cap)
    assert t_vec == t_ref == t_mesh


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_completion_times_agree_unified(name, backend, rng):
    side = 6
    grid = random_permutation_grid(side, rng=rng)
    schedule = get_algorithm(name)
    expected = run_sort("vectorized", schedule, grid).steps_scalar()
    assert run_sort(backend, schedule, grid).steps_scalar() == expected
