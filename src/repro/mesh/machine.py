"""Processor-level executor: comparator exchanges over explicit wires.

:class:`MeshMachine` is the cell-level interpreter of
:mod:`repro.core.reference` at the granularity the paper describes the
hardware: each cell of a ``rows x cols`` mesh (the paper's square mesh or
its ``1 x N`` linear array) is a processor holding one word; at each step
the scheduled comparator pairs exchange values over the wire that connects
them.
On top of the interpreter's step loop the machine

* refuses comparators scheduled over missing wires (running a row-major
  schedule on a mesh built without wrap-around wires raises
  :class:`~repro.errors.MissingWireError`), and
* accounts traffic per wire (a comparison always costs one exchange on its
  wire; a *swap* is additionally counted), which the experiments use to
  report wire utilisation — including how much work the extra wrap wires do.

Being step-for-step identical to the other executors is asserted by the
cross-validation tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.reference import ReferenceMachine
from repro.core.schedule import Schedule
from repro.errors import DimensionError, MissingWireError
from repro.mesh.topology import Cell, MeshTopology
from repro.obs.events import Observer

__all__ = ["LinkStats", "MeshMachine", "mesh_sort"]


@dataclass
class LinkStats:
    """Per-wire traffic accounting."""

    comparisons: Counter = field(default_factory=Counter)
    swaps: Counter = field(default_factory=Counter)

    def total_comparisons(self) -> int:
        return sum(self.comparisons.values())

    def total_swaps(self) -> int:
        return sum(self.swaps.values())

    def busiest_links(self, k: int = 5) -> list[tuple[tuple[Cell, Cell], int]]:
        return self.comparisons.most_common(k)


class MeshMachine(ReferenceMachine):
    """A mesh of single-word processors executing a comparator schedule.

    The cell-level interpreter :class:`~repro.core.reference.ReferenceMachine`
    plus the machine model: a construction-time check that every scheduled
    comparator has a wire, and per-wire traffic in :attr:`stats`.
    """

    def __init__(
        self,
        schedule: Schedule,
        grid: np.ndarray | Sequence[Sequence[int]],
        *,
        topology: MeshTopology | None = None,
    ):
        super().__init__(schedule, grid)
        if topology is None:
            topology = MeshTopology(
                self.rows, self.cols, wraparound=schedule.uses_wraparound
            )
        if (topology.rows, topology.cols) != (self.rows, self.cols):
            raise DimensionError(
                f"topology shape {topology.rows}x{topology.cols} != grid shape "
                f"{self.rows}x{self.cols}"
            )
        self.topology = topology
        self.stats = LinkStats()
        # Each step's wires, as sorted cell pairs in firing order.  The wire
        # check is static: a schedule either fits the topology or not.
        cells = [divmod(index, self.cols) for index in range(self.rows * self.cols)]
        self._wire = {}
        self._wires_per_step = []
        for step_pairs in self._pairs_per_step:
            for low, high in step_pairs:
                a, b = cells[low], cells[high]
                if not topology.has_link(a, b):
                    raise MissingWireError(
                        f"schedule {schedule.name!r} compares {a} with {b}, "
                        f"but the mesh (wraparound={topology.wraparound}) has "
                        "no wire between them"
                    )
                self._wire[low, high] = (a, b) if a <= b else (b, a)
            self._wires_per_step.append([self._wire[pair] for pair in step_pairs])

    def step(self) -> None:
        """Execute the next schedule step: every scheduled pair exchanges
        values over its wire and keeps the smaller at the designated end.

        The machine emits no events: observers attach to the driver that
        steps it (``mesh_sort`` or the ``"mesh"`` backend).
        """
        wires = self._wires_per_step[self.t % len(self._wires_per_step)]
        swapped = self._exchange()
        self.stats.comparisons.update(wires)
        self.stats.swaps.update([self._wire[pair] for pair in swapped])


def mesh_sort(
    schedule: Schedule,
    grid: np.ndarray,
    *,
    max_steps: int,
    topology: MeshTopology | None = None,
    observer: Observer | None = None,
) -> tuple[int, MeshMachine]:
    """Sort one grid to completion on the processor-level machine.

    Returns ``(t_f, machine)``; the machine exposes the final cells and
    the per-wire traffic statistics (E-TRAFFIC reads them).  Raises
    :class:`~repro.errors.StepLimitExceeded` if the cap is hit.  Runs
    :func:`repro.backends.run_sort` on the ``"mesh"`` backend; a private
    backend instance carries ``topology`` through and hands the run, and
    so the machine, back.
    """
    from repro.backends.driver import run_sort
    from repro.backends.interpreter import MeshBackend

    backend = MeshBackend(topology=topology)
    outcome = run_sort(
        backend,
        schedule,
        grid,
        max_steps=max_steps,
        raise_on_cap=True,
        observer=observer,
    )
    assert backend.last_run is not None
    return outcome.steps_scalar(), backend.last_run.machines[0]
