"""Differential runner: real backends agree, a planted bug is caught."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends
from repro.backends.base import Backend
from repro.backends.registry import _FACTORIES, _INSTANCES, register_backend
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.errors import DimensionError
from repro.verify.differential import differential_run
from repro.verify.inputs import generate_cases
from repro.verify.mutations import mutate_schedule


class _MutantBackend(Backend):
    """Delegates to the vectorized kernels but runs a corrupted schedule —
    the 'one backend carries a transcription bug' scenario."""

    name = "mutant-test"

    def __init__(self) -> None:
        from repro.backends.vectorized import VectorizedBackend

        self._inner = VectorizedBackend()

    def prepare(self, schedule, grid):
        return self._inner.prepare(
            mutate_schedule(schedule, "flip-direction", 0), grid
        )


@pytest.fixture
def mutant_backend():
    register_backend("mutant-test", _MutantBackend)
    try:
        yield "mutant-test"
    finally:
        _FACTORIES.pop("mutant-test", None)
        _INSTANCES.pop("mutant-test", None)


# Square, rectangular and linear meshes; the row-major algorithms need an
# even column count, so they skip the 3 x 5 mesh.
AGREEMENT_CASES = [
    pytest.param(name, shape, id=name if shape == (6, 6) else f"{name}-{shape[0]}x{shape[1]}")
    for shape in ((6, 6), (3, 5), (1, 12))
    for name in ALGORITHM_NAMES
    if shape[1] % 2 == 0 or not get_algorithm(name).requires_even_side
]


class TestAgreement:
    @pytest.mark.parametrize("algorithm, shape", AGREEMENT_CASES)
    def test_all_backends_agree(self, algorithm, shape):
        rows, cols = shape
        rng = np.random.default_rng(7)
        grid = rng.permutation(rows * cols).reshape(shape)
        report = differential_run(algorithm, grid)
        assert report.ok, report.describe()
        assert set(report.steps) == set(available_backends())
        assert {"vectorized", "reference", "mesh"} <= set(report.steps)
        assert len(set(report.steps.values())) == 1

    def test_presorted_grid_agrees(self):
        cases = generate_cases(4, "snake", seed=0, permutations=0, zero_ones=0,
                               near_sorted=0)
        # the 'reversed' adversarial case plus a literally sorted grid
        from repro.verify.inputs import sorted_target

        report = differential_run("snake_1", sorted_target(4, "snake"))
        assert report.ok
        assert all(steps == 0 for steps in report.steps.values())
        assert cases  # adversarial family always present

    def test_reference_added_when_missing(self):
        grid = np.random.default_rng(0).permutation(16).reshape(4, 4)
        report = differential_run("snake_1", grid, backends=("mesh",),
                                  reference="vectorized")
        assert set(report.backends) == {"vectorized", "mesh"}
        assert report.ok, report.describe()


class TestDetection:
    def test_planted_bug_is_caught(self, mutant_backend):
        grid = np.random.default_rng(3).permutation(36).reshape(6, 6)
        report = differential_run(
            "snake_1", grid, backends=("vectorized", mutant_backend)
        )
        assert not report.ok
        kinds = {m.kind for m in report.mismatches}
        assert kinds & {"trajectory", "steps", "final", "completion"}
        assert any(m.backend == mutant_backend for m in report.mismatches)
        assert mutant_backend in report.describe()

    def test_trajectory_mismatch_reports_first_divergence(self, mutant_backend):
        grid = np.random.default_rng(3).permutation(36).reshape(6, 6)
        report = differential_run(
            "snake_1", grid, backends=("vectorized", mutant_backend)
        )
        trajectory = [m for m in report.mismatches if m.kind == "trajectory"]
        assert trajectory and trajectory[0].t is not None
        assert trajectory[0].t >= 1
        assert "differing cell" in trajectory[0].detail


class TestValidation:
    def test_flat_grid_rejected(self):
        with pytest.raises(DimensionError):
            differential_run("snake_1", np.zeros(16, dtype=np.int64))

    def test_batched_grid_rejected(self):
        with pytest.raises(DimensionError):
            differential_run("snake_1", np.zeros((2, 4, 4), dtype=np.int64))

    def test_empty_backend_list_rejected(self):
        grid = np.arange(16).reshape(4, 4)
        with pytest.raises(DimensionError):
            differential_run("snake_1", grid, backends=(), reference=None)
