"""A test-local backend whose lane runs always step on the NumPy engine.

The ``vectorized`` backend steps integer lanes in C where the shared
library builds; this backend hands :class:`LaneRun` no kernel, so the
tests can hold the C engine against the NumPy engine on the same inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import Backend, compiled_schedule
from repro.backends.vectorized import LaneRun
from repro.core.orders import validate_shape


class NumpyLanes(Backend):
    name = "numpy-lanes"

    def prepare(self, schedule, grid):
        arr = np.asarray(grid)
        rows, cols = validate_shape(arr)
        return LaneRun(compiled_schedule(schedule, rows, cols), arr, schedule.order, kernel=None)


NUMPY = NumpyLanes()
# A parametrize value for sweeps that run the registry's backends and this one.
NUMPY_PARAM = pytest.param(NUMPY, id=NUMPY.name)
