"""Monte-Carlo samplers give identical results on every backend.

Grids are drawn in the same batched RNG order regardless of backend, and
the backends agree step-for-step, so the same seed must yield bit-identical
samples whether the batch runs on the vectorized kernels or trial-by-trial
on a single-grid backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import ExecutionOptions
from repro.errors import DimensionError
from repro.experiments.config import ExperimentConfig
from repro.experiments.montecarlo import (
    _sort_steps_values,
    _statistic_values,
)
from repro.zeroone.weights import first_column_zeros


def test_sample_sort_steps_backend_parity():
    baseline = _sort_steps_values("snake_1", 6, 8, seed=123)
    for backend in ("reference", "mesh"):
        steps = _sort_steps_values("snake_1", 6, 8, seed=123, backend=backend)
        np.testing.assert_array_equal(steps, baseline)


def test_sample_sort_steps_parity_across_batch_boundaries():
    baseline = _sort_steps_values("row_major_row_first", 4, 7, seed=9, batch_size=3)
    again = _sort_steps_values(
        "row_major_row_first", 4, 7, seed=9, batch_size=3, backend="reference"
    )
    np.testing.assert_array_equal(again, baseline)


def test_sample_statistic_backend_parity():
    def stat(grids):
        return np.atleast_1d(np.asarray(first_column_zeros(grids)))

    baseline = _statistic_values("snake_1", 6, 10, stat, seed=77)
    for backend in ("reference", "mesh"):
        values = _statistic_values(
            "snake_1", 6, 10, stat, seed=77, backend=backend
        )
        np.testing.assert_array_equal(values, baseline)


def test_experiment_config_validates_backend():
    cfg = ExperimentConfig(execution=ExecutionOptions(backend="reference"))
    assert cfg.execution.backend == "reference"
    with pytest.raises(DimensionError, match="unknown backend"):
        ExperimentConfig(execution=ExecutionOptions(backend="no-such-backend"))
