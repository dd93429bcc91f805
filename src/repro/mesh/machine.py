"""Processor-level executor: comparator exchanges over explicit wires.

:class:`MeshMachine` runs the same :class:`~repro.core.schedule.Schedule` IR
as the vectorized engine, but at the granularity the paper describes the
hardware: each cell is a processor holding one word; at each step the
scheduled comparator pairs exchange values over the wire that connects them.
The machine

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

from repro.analysis.schedule_check import check_schedule
from repro.core.orders import is_sorted_grid
from repro.core.schedule import Schedule, lower
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


class MeshMachine:
    """A mesh of single-word processors executing a comparator schedule."""

    def __init__(
        self,
        schedule: Schedule,
        grid: np.ndarray | Sequence[Sequence[int]],
        *,
        topology: MeshTopology | None = None,
    ):
        values = np.array(grid, copy=True)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DimensionError(
                f"MeshMachine requires a single square grid, got shape {values.shape}"
            )
        self.side = int(values.shape[0])
        check_schedule(schedule, self.side, self.side).raise_for_structural()
        self.schedule = schedule
        if topology is None:
            topology = MeshTopology(self.side, wraparound=schedule.uses_wraparound)
        if topology.side != self.side:
            raise DimensionError(
                f"topology side {topology.side} != grid side {self.side}"
            )
        self.topology = topology
        # Processor-local memories: one word per cell, kept as the Python
        # scalar of the input's value; ``as_array`` restores the dtype.
        self.dtype = values.dtype
        self.memory = {
            (r, c): v for r, row in enumerate(values.tolist()) for c, v in enumerate(row)
        }
        self.t = 0
        self.stats = LinkStats()
        lo, hi, off = lower(schedule, self.side, self.side)
        cells = [divmod(index, self.side) for index in range(self.side * self.side)]
        pairs = [(cells[low], cells[high]) for low, high in zip(lo.tolist(), hi.tolist())]
        bounds = off.tolist()
        self._pairs_per_step = [pairs[a:b] for a, b in zip(bounds, bounds[1:])]
        # Wire check is static: a schedule either fits the topology or not.
        for step_pairs in self._pairs_per_step:
            for low, high in step_pairs:
                if not self.topology.has_link(low, high):
                    raise MissingWireError(
                        f"schedule {schedule.name!r} compares {low} with {high}, "
                        f"but the mesh (wraparound={self.topology.wraparound}) has "
                        "no wire between them"
                    )

    def step(self) -> int:
        """Execute the next schedule step: every scheduled pair exchanges
        values over its wire and keeps the smaller at the designated end.

        Returns the number of swaps the step performed.  The machine emits
        no events: observers attach to the driver that steps it
        (``mesh_sort`` or the ``"mesh"`` backend).
        """
        self.t += 1
        pairs = self._pairs_per_step[(self.t - 1) % len(self._pairs_per_step)]
        mem = self.memory
        swaps = 0
        for low, high in pairs:
            edge = (low, high) if low <= high else (high, low)
            self.stats.comparisons[edge] += 1
            a, b = mem[low], mem[high]
            if a > b:
                mem[low], mem[high] = b, a
                self.stats.swaps[edge] += 1
                swaps += 1
        return swaps

    def comparisons_at(self, t: int) -> int:
        """Number of comparator firings in (1-based) schedule step ``t``."""
        return len(self._pairs_per_step[(t - 1) % len(self._pairs_per_step)])

    def run(self, num_steps: int) -> None:
        for _ in range(num_steps):
            self.step()

    def as_array(self) -> np.ndarray:
        out = np.empty((self.side, self.side), dtype=self.dtype)
        for (r, c), v in self.memory.items():
            out[r, c] = v
        return out

    def is_sorted(self) -> bool:
        return bool(is_sorted_grid(self.as_array(), self.schedule.order))


def mesh_sort(
    schedule: Schedule,
    grid: np.ndarray,
    *,
    max_steps: int,
    topology: MeshTopology | None = None,
    observer: Observer | None = None,
) -> tuple[int, MeshMachine]:
    """Sort one grid to completion on the processor-level machine.

    Returns ``(t_f, machine)``; the machine exposes the final memories and
    the per-wire traffic statistics.  Raises
    :class:`~repro.errors.StepLimitExceeded` if the cap is hit.
    Compatibility shim over :func:`repro.backends.run_sort` on the
    ``"mesh"`` backend (a private backend instance carries ``topology``
    through and hands the machine back).
    """
    from repro.backends.driver import run_sort
    from repro.backends.mesh import MeshBackend

    backend = MeshBackend(topology=topology)
    outcome = run_sort(
        backend,
        schedule,
        grid,
        max_steps=max_steps,
        raise_on_cap=True,
        observer=observer,
    )
    assert backend.last_machine is not None
    return outcome.steps_scalar(), backend.last_machine
