"""Vectorized (batched) NumPy backend.

The run state is a working copy of the input batch plus a cached
:class:`~repro.backends.compile.CompiledSchedule`; each step is a handful
of strided-slice ``np.minimum``/``np.maximum`` kernels, so a whole batch of
independent grids shaped ``(..., rows, cols)`` advances in one call — how
the Monte-Carlo experiments simulate hundreds of permutations at once.  A
square mesh is the case ``rows == cols`` and the paper's linear array the
case ``rows == 1``.

A sort-to-completion run spends most of its steps on a shrinking set of
unsorted grids, so :class:`ArrayRun` only works on those:

* **Retirement in place.**  Sorted grids are fixed points of every
  schedule, so when :meth:`ArrayRun.done_mask` finds a grid sorted it
  swaps it behind the live slots of the work buffer and the kernels run
  on the leading live slice only.  A slot-to-grid map puts every snapshot
  back into the caller's batch order.
* **Witness completion checks.**  Each live grid keeps one cell known to
  differ from its target.  A step gathers only those cells; a grid whose
  witness still differs is certainly unsorted, and only grids whose
  witness now matches get a full comparison, which either finishes them
  or moves the witness to the first cell that still differs.

Per-step swap counts are not a by-product here: they require diffing the
grid against a pre-step copy, so :class:`ArrayRun` only does that when the
driver asks (``want_swaps=True``).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, ExecutorRun, StepStats
from repro.backends.compile import CompiledSchedule, compiled_schedule
from repro.core.orders import Order, target_grid, validate_shape
from repro.core.schedule import Schedule

__all__ = ["ArrayRun", "VectorizedBackend"]


class ArrayRun(ExecutorRun):
    """Run state of the array-kernel backend.

    ``batch_shape`` is always the nominal batch, and every grid this run
    hands out (:meth:`materialize` and the snapshots built on it) is in
    the caller's batch order, however many grids have retired.
    """

    def __init__(self, compiled: CompiledSchedule, work: np.ndarray, order: Order):
        self.compiled = compiled
        self.order = order
        self.work = np.ascontiguousarray(work)
        self.rows = compiled.rows
        self.cols = compiled.cols
        self.batch_shape = tuple(work.shape[:-2])
        self.cycle_len = len(compiled)
        n = int(np.prod(self.batch_shape, dtype=np.int64))
        self._cells = self.rows * self.cols
        # Views of the one work buffer: per-slot grids for the kernels,
        # per-slot rows for comparisons and swaps, and the raveled cells
        # the witness positions index.
        self._grids = self.work.reshape(n, self.rows, self.cols)
        self._flat = self.work.reshape(n, self._cells)
        self._ravel = self.work.reshape(-1)
        self._live = n
        self._active = self._grids
        self._done = np.zeros(n, dtype=bool)
        # Slot -> grid id; ``None`` while no grid has moved (identity).
        self._slot_grid: np.ndarray | None = None
        # Built by the first done_mask(): fixed-step runs never check
        # completion, so they never pay for sorting the batch.
        self._target: np.ndarray | None = None
        self._pos = self._want = np.empty(0, dtype=np.intp)

    def _build_target(self) -> np.ndarray:
        """Sort the batch into its targets and put every witness on cell 0.

        Compare-exchange only permutes each grid's values, so the work
        buffer gives the same targets at any step.  Grids only move slots
        on retirement, which needs a target, so slot ``i`` is grid ``i``.
        """
        n = self._done.size
        # target_grid's rank-grid gather returns a transposed layout; the
        # witness and recheck gathers want each grid's target contiguous.
        self._target = np.ascontiguousarray(
            target_grid(self._flat, self.rows, self.order, cols=self.cols)
        ).reshape(n, self._cells)
        # Witness of each slot: its raveled buffer position and the target
        # value there.  Cell 0 is only a first guess; a match triggers the
        # full comparison.
        self._pos = np.arange(n, dtype=np.intp) * self._cells
        self._want = self._target[:, 0].copy()
        return self._target

    def apply_step(self, t: int, *, want_swaps: bool = False) -> StepStats:
        active = self._active
        if not want_swaps:
            self.compiled.apply_step(active, t)
            return StepStats()
        before = active.copy()
        self.compiled.apply_step(active, t)
        swaps = int(np.count_nonzero(before != active)) // 2
        return StepStats(swaps=swaps)

    def done_mask(self) -> np.ndarray:
        target = self._target if self._target is not None else self._build_target()
        live = self._live
        if live:
            matched = np.flatnonzero(self._ravel[self._pos[:live]] == self._want[:live])
            if matched.size:
                self._recheck(matched, target)
        return self._done.reshape(self.batch_shape).copy()

    def _recheck(self, slots: np.ndarray, target: np.ndarray) -> None:
        """Fully compare the grids in ``slots`` with their targets: retire
        the sorted ones and move the others' witnesses."""
        ids = slots if self._slot_grid is None else self._slot_grid[slots]
        differs = self._flat[slots] != target[ids]
        first = differs.argmax(axis=1)
        unsorted = differs[np.arange(slots.size), first]
        moved, cell = slots[unsorted], first[unsorted]
        self._pos[moved] = moved * self._cells + cell
        self._want[moved] = target[ids[unsorted], cell]
        if not unsorted.all():
            self._retire(slots[~unsorted], ids[~unsorted])

    def _retire(self, slots: np.ndarray, ids: np.ndarray) -> None:
        """Swap the sorted grids in ``slots`` behind the live slots."""
        self._done[ids] = True
        old, live = self._live, self._live - slots.size
        holes = slots[slots < live]
        if holes.size:
            if self._slot_grid is None:
                self._slot_grid = np.arange(self._done.size, dtype=np.intp)
            in_tail = np.ones(old - live, dtype=bool)
            in_tail[slots[slots >= live] - live] = False
            movers = np.flatnonzero(in_tail) + live
            flat, order = self._flat, self._slot_grid
            flat[holes], flat[movers] = flat[movers], flat[holes]
            order[holes], order[movers] = order[movers], order[holes]
            self._pos[holes] = self._pos[movers] - (movers - holes) * self._cells
            self._want[holes] = self._want[movers]
        self._live = live
        self._active = self._grids[:live]

    def materialize(self) -> np.ndarray:
        if self._slot_grid is None:
            return self.work
        grids = np.empty_like(self._flat)
        grids[self._slot_grid] = self._flat
        return grids.reshape(self.work.shape)

    def iter_grid(self, copy: bool) -> np.ndarray:
        grid = self.materialize()
        return grid.copy() if copy and grid is self.work else grid


class VectorizedBackend(Backend):
    """The batched strided-slice executor for any ``rows x cols`` mesh."""

    name = "vectorized"
    event_executor = "engine"
    supports_batch = True
    supports_rect = True
    counts_swaps = False

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> ArrayRun:
        work = np.array(grid, copy=True)
        rows, cols = validate_shape(work)
        return ArrayRun(compiled_schedule(schedule, rows, cols), work, schedule.order)
