"""The cell-by-cell interpreter (the semantic oracle).

:class:`ReferenceMachine` interprets a :class:`~repro.core.schedule.Schedule`
one comparator at a time, stepping the flat comparator program of
:func:`repro.core.schedule.lower` over the cells of any ``rows x cols``
mesh (square meshes and ``1 x N`` linear arrays included).  It is the
package's one cell-level step loop: the processor-level
:class:`~repro.mesh.machine.MeshMachine` extends it with wires and traffic
accounting, and the ``reference`` and ``mesh`` backends run one machine per
grid of a batch.  It is deliberately slow and simple — its role is to pin
down the intended semantics so the array kernels can be property-tested
against it on small meshes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends.compile import compiled_schedule
from repro.core.orders import is_sorted_grid
from repro.core.schedule import Schedule
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

    The program comes from the compiled-schedule cache
    (:func:`~repro.backends.compile.compiled_schedule`), which validates the
    schedule with the static schedule verifier (mesh constraints raise
    :class:`~repro.errors.UnsupportedMeshError`, malformed steps
    :class:`~repro.errors.ScheduleValidationError`) and lowers it once per
    ``(schedule, rows, cols)``.
    """

    def __init__(self, schedule: Schedule, grid: np.ndarray | Sequence[Sequence[int]]):
        self.cells, arr = _to_cells(grid)
        self.rows, self.cols = arr.shape
        self.dtype = arr.dtype
        self.schedule = schedule
        self.t = 0
        lo, hi, off = compiled_schedule(schedule, self.rows, self.cols).program
        pairs = list(zip(lo.tolist(), hi.tolist()))
        bounds = off.tolist()
        self._pairs_per_step = [pairs[a:b] for a, b in zip(bounds, bounds[1:])]

    def _exchange(self) -> list[tuple[int, int]]:
        """Fire the next schedule step's comparators on the stored cells
        (smaller value at ``lo``) and return the ``(lo, hi)`` pairs that
        swapped, in firing order."""
        self.t += 1
        g = self.cells
        swapped = []
        for low, high in self._pairs_per_step[(self.t - 1) % len(self._pairs_per_step)]:
            a, b = g[low], g[high]
            if a > b:
                g[low], g[high] = b, a
                swapped.append((low, high))
        return swapped

    def step(self) -> None:
        """Execute the next schedule step on the stored grid."""
        self._exchange()

    def run(self, num_steps: int) -> None:
        for _ in range(num_steps):
            self.step()

    def as_array(self) -> np.ndarray:
        return np.array(self.cells, dtype=self.dtype).reshape(self.rows, self.cols)

    def is_sorted(self) -> bool:
        return bool(is_sorted_grid(self.as_array(), self.schedule.order))
