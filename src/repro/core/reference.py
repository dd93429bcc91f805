"""Pure-Python reference executor (the semantic oracle).

This executor interprets a :class:`~repro.core.schedule.Schedule` one
comparator at a time using the explicit comparator lists from
:func:`repro.core.schedule.comparator_pairs` on any ``rows x cols`` mesh
(square meshes and ``1 x N`` linear arrays included).  It is deliberately
slow and simple —
its role is to pin down the intended semantics so the vectorized engine
and the processor-level mesh machine can be property-tested against it on
small meshes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.schedule_check import check_schedule
from repro.core.orders import is_sorted_grid
from repro.core.schedule import Schedule, comparator_pairs
from repro.errors import DimensionError

__all__ = ["ReferenceMachine"]

Grid = list[list]


def _to_grid(array: np.ndarray | Sequence[Sequence[int]]) -> tuple[Grid, np.dtype]:
    """The cells as Python scalars (values kept exactly) and the dtype to
    rebuild arrays in."""
    arr = np.asarray(array)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(
            "reference machine requires a non-empty rectangular grid, "
            f"got shape {arr.shape}"
        )
    return arr.tolist(), arr.dtype


class ReferenceMachine:
    """Cell-by-cell interpreter for a schedule on a single ``rows x cols``
    grid.

    The schedule is validated by the static schedule verifier (mesh
    constraints raise :class:`~repro.errors.UnsupportedMeshError`, malformed
    steps :class:`~repro.errors.ScheduleValidationError`) and each step is
    expanded into its comparator list once.
    """

    def __init__(self, schedule: Schedule, grid: np.ndarray | Sequence[Sequence[int]]):
        self.grid, self.dtype = _to_grid(grid)
        self.rows = len(self.grid)
        self.cols = len(self.grid[0])
        self.schedule = schedule
        self.t = 0
        check_schedule(schedule, self.rows, self.cols).raise_for_structural()
        # Pre-expand each cycle step into its comparator list.
        self._pairs_per_step = [
            [pair for op in step for pair in comparator_pairs(op, self.rows, self.cols)]
            for step in schedule.steps
        ]

    def step(self) -> int:
        """Execute the next schedule step on the stored grid.

        Returns the number of swaps the step performed (observability
        callers report it; others may ignore the return value).
        """
        self.t += 1
        pairs = self._pairs_per_step[(self.t - 1) % len(self._pairs_per_step)]
        g = self.grid
        swaps = 0
        for (lr, lc), (hr, hc) in pairs:
            a, b = g[lr][lc], g[hr][hc]
            if a > b:
                g[lr][lc], g[hr][hc] = b, a
                swaps += 1
        return swaps

    def run(self, num_steps: int) -> None:
        for _ in range(num_steps):
            self.step()

    def as_array(self) -> np.ndarray:
        return np.array(self.grid, dtype=self.dtype)

    def is_sorted(self) -> bool:
        return bool(is_sorted_grid(self.as_array(), self.schedule.order))
