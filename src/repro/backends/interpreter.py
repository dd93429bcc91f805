"""Cell-level backends: the reference oracle and the processor mesh.

Both run the one cell-level interpreter of :mod:`repro.core.reference`:
``reference`` steps a :class:`~repro.core.reference.ReferenceMachine` per
grid, ``mesh`` a :class:`~repro.mesh.machine.MeshMachine` (the same
interpreter plus wires and per-wire traffic; it refuses a comparator
without a wire at ``prepare``).  Both run any ``rows x cols`` mesh, and a
``(..., rows, cols)`` batch becomes one :class:`CellRun` holding one
machine per grid.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.backends.base import Backend, ExecutorRun
from repro.core.orders import target_grid, validate_shape
from repro.core.reference import ReferenceMachine
from repro.core.schedule import Schedule
from repro.mesh.machine import MeshMachine
from repro.mesh.topology import MeshTopology

__all__ = ["CellRun", "ReferenceBackend", "MeshBackend"]


class CellRun(ExecutorRun):
    """One machine per grid of a batch (batch shape ``()`` for one grid).

    Completion compares each machine's cell list with its grid's target
    list.  Sorted grids are fixed points of every schedule, so a grid found
    sorted retires: its machine stops stepping, and a batched sort fires
    the same comparators as one sort per grid.
    """

    def __init__(
        self,
        schedule: Schedule,
        grids: np.ndarray,
        machine: Callable[[Schedule, np.ndarray], ReferenceMachine],
    ):
        self.rows, self.cols = validate_shape(grids)
        self.batch_shape = tuple(grids.shape[:-2])
        self.cycle_len = len(schedule.steps)
        self.machines = [
            machine(schedule, grid)
            for grid in grids.reshape((-1, self.rows, self.cols))
        ]
        self._order = schedule.order
        self._dtype = grids.dtype
        self._live = list(range(len(self.machines)))
        self._done = np.zeros(len(self.machines), dtype=bool)
        self._targets: list[list] | None = None

    def apply_step(self, t: int) -> None:
        for i in self._live:
            machine = self.machines[i]
            # The machine advances its own clock; seeking keeps the driver
            # free to start at any paper time.
            machine.t = t - 1
            machine.step()

    def done_mask(self) -> np.ndarray:
        if self._targets is None:
            # Built on the first check, so fixed-step runs never sort the
            # batch; compare-exchange only permutes each grid's values, so
            # the targets are the same at any step.
            self._targets = target_grid(
                self.materialize(), self.rows, self._order, cols=self.cols
            ).reshape(len(self.machines), self.rows * self.cols).tolist()
        live = []
        for i in self._live:
            if self.machines[i].cells == self._targets[i]:
                self._done[i] = True
            else:
                live.append(i)
        self._live = live
        return self._done.reshape(self.batch_shape).copy()

    def materialize(self) -> np.ndarray:
        return np.array(
            [machine.cells for machine in self.machines], dtype=self._dtype
        ).reshape(self.batch_shape + (self.rows, self.cols))


class ReferenceBackend(Backend):
    """The pure-Python semantic oracle, on any ``rows x cols`` mesh."""

    name = "reference"

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> CellRun:
        return CellRun(schedule, np.asarray(grid), ReferenceMachine)


class MeshBackend(Backend):
    """The explicit-wire, processor-per-cell executor (any mesh shape).

    A private instance can carry a fixed :class:`MeshTopology` (as
    ``mesh_sort`` does); otherwise each ``prepare`` builds the topology the
    schedule needs, shared by the batch's machines.  ``last_run`` keeps the
    run of the most recent ``prepare`` so callers can read each machine's
    per-wire statistics afterwards.
    """

    name = "mesh"

    def __init__(self, topology: MeshTopology | None = None):
        self.topology = topology
        self.last_run: CellRun | None = None

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> CellRun:
        grids = np.asarray(grid)
        topology = self.topology
        if topology is None:
            rows, cols = validate_shape(grids)
            topology = MeshTopology(rows, cols, wraparound=schedule.uses_wraparound)
        self.last_run = CellRun(schedule, grids, partial(MeshMachine, topology=topology))
        return self.last_run
