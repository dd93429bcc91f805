"""Reference (oracle) backend over the cell-by-cell interpreter.

Wraps :class:`~repro.core.reference.ReferenceMachine` in the backend
protocol.  The oracle is deliberately slow and single-grid; its role is to
pin down the intended semantics so the other backends can be
property-tested against it.  Swap counts fall out of the interpretation for
free, so this backend always reports them.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, ExecutorRun, StepStats
from repro.core.orders import target_grid
from repro.core.reference import ReferenceMachine
from repro.core.schedule import Schedule
from repro.errors import DimensionError

__all__ = ["ReferenceRun", "ReferenceBackend"]


class ReferenceRun(ExecutorRun):
    """One reference-machine run (single grid, batch shape ``()``)."""

    def __init__(self, machine: ReferenceMachine, target: np.ndarray):
        self.machine = machine
        self.target = target
        self.rows = machine.rows
        self.cols = machine.cols
        self.batch_shape = ()
        self.cycle_len = len(machine.schedule.steps)

    def apply_step(self, t: int, *, want_swaps: bool = False) -> StepStats:
        # The machine advances its own clock; seeking keeps the driver free
        # to start at any paper time.
        self.machine.t = t - 1
        swaps = self.machine.step()
        return StepStats(swaps=swaps)

    def done_mask(self) -> np.ndarray:
        return np.array(np.array_equal(self.machine.as_array(), self.target))

    def materialize(self) -> np.ndarray:
        return self.machine.as_array()


class ReferenceBackend(Backend):
    """The pure-Python semantic oracle."""

    name = "reference"
    event_executor = "reference"
    supports_batch = False
    supports_rect = True
    counts_swaps = True

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> ReferenceRun:
        arr = np.asarray(grid)
        if arr.ndim != 2:
            raise DimensionError(
                "reference backend accepts a single grid "
                f"(2-d array), got shape {arr.shape}"
            )
        machine = ReferenceMachine(schedule, arr)
        target = target_grid(
            machine.as_array(), machine.rows, schedule.order, cols=machine.cols
        )
        return ReferenceRun(machine, target)
