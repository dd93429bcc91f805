"""Pure-Python reference executor (the semantic oracle).

This executor interprets a :class:`~repro.core.schedule.Schedule` one
comparator at a time, stepping the flat comparator program of
:func:`repro.core.schedule.lower` over the cells of any ``rows x cols``
mesh (square meshes and ``1 x N`` linear arrays included).  It is
deliberately slow and simple — its role is to pin down the intended
semantics so the vectorized engine and the processor-level mesh machine
can be property-tested against it on small meshes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.schedule_check import check_schedule
from repro.core.orders import is_sorted_grid
from repro.core.schedule import Schedule, lower
from repro.errors import DimensionError

__all__ = ["ReferenceMachine"]


def _to_cells(array: np.ndarray | Sequence[Sequence[int]]) -> tuple[list, np.ndarray]:
    """The cells in row-major order as Python scalars (values kept exactly)
    and the input as an array, whose shape and dtype rebuild the grid."""
    arr = np.asarray(array)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(
            "reference machine requires a non-empty rectangular grid, "
            f"got shape {arr.shape}"
        )
    return arr.ravel().tolist(), arr


class ReferenceMachine:
    """Cell-by-cell interpreter for a schedule on a single ``rows x cols``
    grid.

    The schedule is validated by the static schedule verifier (mesh
    constraints raise :class:`~repro.errors.UnsupportedMeshError`, malformed
    steps :class:`~repro.errors.ScheduleValidationError`) and lowered to its
    flat comparator program once.
    """

    def __init__(self, schedule: Schedule, grid: np.ndarray | Sequence[Sequence[int]]):
        self.cells, arr = _to_cells(grid)
        self.rows, self.cols = arr.shape
        self.dtype = arr.dtype
        self.schedule = schedule
        self.t = 0
        check_schedule(schedule, self.rows, self.cols).raise_for_structural()
        lo, hi, off = lower(schedule, self.rows, self.cols)
        pairs = list(zip(lo.tolist(), hi.tolist()))
        bounds = off.tolist()
        self._pairs_per_step = [pairs[a:b] for a, b in zip(bounds, bounds[1:])]

    def step(self) -> int:
        """Execute the next schedule step on the stored grid.

        Returns the number of swaps the step performed (observability
        callers report it; others may ignore the return value).
        """
        self.t += 1
        pairs = self._pairs_per_step[(self.t - 1) % len(self._pairs_per_step)]
        g = self.cells
        swaps = 0
        for low, high in pairs:
            a, b = g[low], g[high]
            if a > b:
                g[low], g[high] = b, a
                swaps += 1
        return swaps

    def run(self, num_steps: int) -> None:
        for _ in range(num_steps):
            self.step()

    def as_array(self) -> np.ndarray:
        return np.array(self.cells, dtype=self.dtype).reshape(self.rows, self.cols)

    def is_sorted(self) -> bool:
        return bool(is_sorted_grid(self.as_array(), self.schedule.order))
