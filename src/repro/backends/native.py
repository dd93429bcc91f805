"""Native lane-major backend: one C call sorts a whole batch.

Savari's theorems are about step counts over random inputs, so every paper
number is a batched Monte-Carlo sort.  This backend runs that sort as a
compiled loop instead of one NumPy dispatch per step and per completion
check.  Its runs are the :class:`~repro.backends.vectorized.LaneRun` runs, the
lane-major runs of the ``vectorized`` backend, with a C engine:

* **Engine.**  ``repro_lanes`` runs steps ``t0 .. t0+n-1`` on ``int8``/
  ``int16``/``int32`` lanes, every comparator a branch-free min/max over
  contiguous lanes, which the compiler vectorizes.  Given a lane-major
  target it also checks completion after every step with the run's
  witnesses, and it updates the run's state buffer and counters
  (:data:`~repro.backends.vectorized.COUNTERS`).  Lanes it does not cover
  (floats, values outside ``int32``, empty batches) step on the run's
  NumPy engine, which keeps the same contract.
* **Build.**  ``repro_lanes`` lives in the one C library of
  :mod:`repro._clib`, beside the 0-1 certifier's ``repro_planes``; the
  library is built with ``$CC`` and cached on first use, never at import.
  The first resolution of the backend loads it.  Without a working
  compiler the backend is unavailable: the default
  (:func:`repro.schedules.execution_backend`) falls back to ``vectorized``
  and an explicit ``get_backend("native")`` raises
  :class:`~repro.errors.BackendUnavailableError` with the reason.
"""

from __future__ import annotations

import numpy as np

from repro._clib import load_library
from repro.backends.base import Backend
from repro.backends.compile import compiled_schedule
from repro.backends.vectorized import LaneRun
from repro.core.orders import validate_shape
from repro.core.schedule import Schedule

__all__ = ["NativeBackend"]


class NativeBackend(Backend):
    """The compiled lane-major executor for any ``rows x cols`` mesh.

    Construction loads the library, so resolving the backend fails with
    :class:`~repro.errors.BackendUnavailableError` where it cannot build.
    """

    name = "native"
    # The event stream is the ``vectorized`` backend's, step for step, so
    # the two share its label and their traces compare directly.
    event_executor = "engine"
    supports_rect = True

    def __init__(self) -> None:
        self._kernel = load_library().repro_lanes

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> LaneRun:
        arr = np.asarray(grid)
        rows, cols = validate_shape(arr)
        return LaneRun(
            compiled_schedule(schedule, rows, cols), arr, schedule.order, self._kernel
        )
