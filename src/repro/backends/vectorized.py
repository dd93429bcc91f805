"""Lane-major batch runs and the ``vectorized`` backend that steps them.

Savari's theorems are about step counts over random inputs, so every paper
number is a batched sort.  The ``vectorized`` backend holds the batch in
one run class, :class:`LaneRun`:

* **Program.**  Each ``(schedule, rows, cols)`` is lowered once to a flat
  comparator program (:attr:`CompiledSchedule.program`): ``lo``/``hi`` flat
  cell indices plus one offset per step.
* **Layout.**  The batch is stored lane-major, ``(cells, batch)``: row
  ``c`` holds cell ``c`` of every grid, so a comparator is a min/max of two
  rows over the live lanes.  Integer grids are stored in the narrowest of
  ``int8``/``int16``/``int32`` that holds their min..max
  (:func:`lane_dtype`); other grids keep their dtype.  Every grid handed out
  is in the caller's batch order and dtype.
* **One contract, two engines.**  An engine runs steps ``t0 .. t0+n-1``.
  Given a lane-major target it also checks completion before the first
  step and after every step: each live lane tests one witness cell, and
  only a lane whose witness matches gets a full comparison, which records
  its step count and moves the lane behind the live ones (sorted grids are
  fixed points of every schedule), or moves its witness.  The lane map,
  witnesses, step counts and live count sit in one ``int64`` state buffer.
  Integer lanes step in the C loop ``repro_lanes`` of :mod:`repro._clib`
  (every comparator a branch-free min/max over contiguous lanes, which the
  compiler vectorizes) where that library builds.  Every other run —
  floats, values outside ``int32``, empty batches, or no working C
  compiler — steps on :meth:`LaneRun._numpy`, which gathers the two rows
  of each comparator over the live lanes per step, takes
  ``np.minimum``/``np.maximum`` (operands in the order of
  :attr:`CompiledSchedule.operands`) and scatters them to ``lo``/``hi``.
  The two engines give the same grids, step counts and event streams, so
  the choice is the platform's, like the 0-1 certifier's and the seeded
  draws'.  :func:`repro._clib.load_library` raises with the reason where
  the C engine is not in use.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro._clib import load_library
from repro.backends.base import Backend, ExecutorRun
from repro.backends.compile import CompiledSchedule, compiled_schedule
from repro.core.orders import Order, rank_grid, validate_shape
from repro.core.schedule import Schedule
from repro.errors import BackendUnavailableError, DimensionError

__all__ = ["LaneRun", "VectorizedBackend", "lane_dtype", "COUNTERS"]

#: Names of the counters the C engine accumulates, in its output order.
COUNTERS = (
    "native.comparisons",
    "native.witness_checks",
    "native.full_checks",
    "native.kernel_ns",
    "native.completion_ns",
)

# Each narrow lane type with the value range it holds.
_LANE_DTYPES = tuple(
    (np.dtype(t), int(np.iinfo(t).min), int(np.iinfo(t).max))
    for t in (np.int8, np.int16, np.int32)
)


def lane_dtype(grid: np.ndarray) -> np.dtype | None:
    """The narrowest integer lane type holding every value of ``grid``.

    ``None`` when the lanes keep the grid's own dtype: floats, other
    non-integer dtypes, values outside ``int32`` and empty batches.
    """
    if grid.dtype == bool:
        return _LANE_DTYPES[0][0]
    if grid.dtype.kind not in "iu" or grid.size == 0:
        return None
    lo, hi = int(grid.min()), int(grid.max())
    for dtype, least, most in _LANE_DTYPES:
        if least <= lo and hi <= most:
            return dtype
    return None


class LaneRun(ExecutorRun):
    """Run state of a lane-major batch: the lanes and their bookkeeping.

    Slot ``b`` of the lanes holds grid ``lane[b]``; sorted grids move
    behind the live slots.  ``kernel`` is the C entry point
    ``repro_lanes``; it steps the run when the lanes are narrow integers,
    and the NumPy engine steps every other run.
    """

    def __init__(
        self,
        compiled: CompiledSchedule,
        grid: np.ndarray,
        order: Order,
        kernel: Callable[..., int] | None = None,
    ):
        self.compiled = compiled
        self.order = order
        self.rows, self.cols = compiled.rows, compiled.cols
        self.batch_shape = tuple(grid.shape[:-2])
        self.cycle_len = len(compiled)
        self._dtype = grid.dtype
        n, cells = int(np.prod(self.batch_shape, dtype=np.int64)), self.rows * self.cols
        narrow = lane_dtype(grid)
        flat = grid.reshape(n, cells)
        # A fresh buffer, filled by assignment: the lanes never alias the
        # caller's array, whatever its dtype and layout.  Narrowing first
        # makes the transposing copy move fewer bytes.
        self._lanes = lanes = np.empty((cells, n), dtype=narrow or grid.dtype)
        lanes[...] = (flat if narrow is None else flat.astype(narrow)).T
        # One buffer for the per-lane bookkeeping: the live-slot count,
        # slot -> grid ids, witness cells, step counts (per grid) and the
        # C engine's counters.  It lives as long as the run and never
        # moves, so the C engine's pointer arguments are read once.
        self._state = state = np.zeros(1 + 3 * n + len(COUNTERS), dtype=np.int64)
        state[0] = n
        self._lane = state[1 : 1 + n]
        self._lane[:] = np.arange(n)
        self._witness = state[1 + n : 1 + 2 * n]
        self._steps = state[1 + 2 * n : 1 + 3 * n]
        self._steps[:] = -1
        self._counters = state[1 + 3 * n :]
        # Built by the first completion check: fixed-step runs never pay
        # for sorting the batch.
        self._target: np.ndarray | None = None
        self._t = 0  # the last step applied
        lo, hi, off = compiled.program
        self._kernel = kernel if narrow is not None else None
        if self._kernel is None:
            self._program = (
                *compiled.operands, lo.astype(np.intp), hi.astype(np.intp), off.tolist()
            )
            return
        self._head = (
            lanes.itemsize, lanes.ctypes.data, None, n, cells,
            lo.ctypes.data, hi.ctypes.data, off.ctypes.data, len(off) - 1,
        )
        base = state.ctypes.data
        self._tail = tuple(base + 8 * k for k in (0, 1, 1 + n, 1 + 2 * n, 1 + 3 * n))

    def _run(self, t0: int, n: int, target: np.ndarray | None) -> int:
        """Apply ``n`` steps from paper time ``t0``; with ``target``, check
        completion before the first step and after each one.  Returns the
        number of steps applied (fewer than ``n`` once every lane is
        sorted)."""
        if t0 < 1:
            # The C engine indexes step ``(t0 + s - 1) % cycle``: a time
            # below 1 would read before the program's offsets.
            raise DimensionError(f"step times are 1-based, got {t0}")
        if self._kernel is None:
            ran = self._numpy(t0, n, target)
        else:
            head = self._head
            if target is not None:
                head = (*head[:2], target.ctypes.data, *head[3:])
            ran = self._kernel(*head, t0, n, *self._tail)
        self._t = t0 + ran - 1
        return ran

    def _numpy(self, t0: int, n: int, target: np.ndarray | None) -> int:
        """The NumPy engine: the C loop's contract, one step per iteration."""
        lanes = self._lanes
        first, second, lo, hi, off = self._program
        cycle = len(off) - 1
        live = int(self._state[0])
        s = 0
        while True:
            if target is not None and live:
                live = self._check(t0 + s - 1, target, live)
            if s == n or not live:
                return s
            step = (t0 + s - 1) % cycle
            k = slice(off[step], off[step + 1])
            if live == lanes.shape[1]:
                x, y = lanes[first[k]], lanes[second[k]]
                lanes[lo[k]] = np.minimum(x, y)
                lanes[hi[k]] = np.maximum(x, y, out=y)
            else:
                x, y = lanes[first[k], :live], lanes[second[k], :live]
                lanes[lo[k], :live] = np.minimum(x, y)
                lanes[hi[k], :live] = np.maximum(x, y, out=y)
            s += 1

    def _check(self, t: int, target: np.ndarray, live: int) -> int:
        """Completion check of the live lanes after step ``t``; returns the
        new live count."""
        lanes, lane, witness = self._lanes, self._lane[:live], self._witness[:live]
        slots = np.arange(live)
        hit = np.flatnonzero(lanes[witness, slots] == target[witness, lane])
        if not hit.size:
            return live
        ids = lane[hit]
        differs = lanes[:, hit] != target[:, ids]
        first = differs.argmax(axis=0)
        unsorted = differs[first, np.arange(hit.size)]
        witness[hit[unsorted]] = first[unsorted]
        if unsorted.all():
            return live
        done = hit[~unsorted]
        self._steps[ids[~unsorted]] = t
        # Fill the holes the sorted lanes leave among the first ``rest``
        # slots with the unsorted lanes of the tail.
        rest = live - done.size
        holes = done[done < rest]
        if holes.size:
            tail = np.ones(done.size, dtype=bool)
            tail[done[done >= rest] - rest] = False
            movers = np.flatnonzero(tail) + rest
            lanes[:, holes], lanes[:, movers] = lanes[:, movers], lanes[:, holes]
            lane[holes], lane[movers] = lane[movers], lane[holes]
            witness[holes] = witness[movers]
        self._state[0] = rest
        return rest

    def _completion_target(self) -> np.ndarray:
        if self._target is None:
            # Compare-exchange only permutes each grid's values, and no
            # grid has changed slots yet (that needs a target), so column
            # ``g`` of the lanes is grid ``g`` in some order.
            ranks = rank_grid(self.rows, self.order, cols=self.cols).ravel()
            self._target = np.sort(self._lanes, axis=0)[ranks]
        return self._target

    def apply_step(self, t: int) -> None:
        self._run(t, 1, None)

    def done_mask(self) -> np.ndarray:
        self._run(self._t + 1, 0, self._completion_target())
        return (self._steps >= 0).reshape(self.batch_shape)

    def sort_to_completion(
        self, max_steps: int, step: Callable[[int], Any] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        if step is not None:
            return super().sort_to_completion(max_steps, step)
        self._run(self._t + 1, max(0, max_steps - self._t), self._completion_target())
        steps = self._steps.reshape(self.batch_shape).copy()
        return steps, steps >= 0

    def materialize(self) -> np.ndarray:
        cells, n = self._lanes.shape
        # A fresh C-ordered buffer: never a view of the lanes, and
        # consumers that hash or serialise it need no second copy.
        grids = np.empty((n, cells), dtype=self._dtype)
        if self._state[0] == n:
            # No grid has retired, so no lane has moved.
            grids[...] = self._lanes.T
        else:
            grids[self._lane] = self._lanes.T
        return grids.reshape(self.batch_shape + (self.rows, self.cols))

    def counters(self) -> dict[str, int]:
        if self._kernel is None:
            return {}
        return dict(zip(COUNTERS, self._counters.tolist()))


def _lane_kernel() -> Callable[..., int] | None:
    """``repro_lanes`` where the shared C library builds, else None."""
    try:
        return load_library().repro_lanes
    except BackendUnavailableError:
        return None


class VectorizedBackend(Backend):
    """The lane-major executor for any ``rows x cols`` mesh."""

    name = "vectorized"

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> LaneRun:
        arr = np.asarray(grid)
        rows, cols = validate_shape(arr)
        return LaneRun(
            compiled_schedule(schedule, rows, cols), arr, schedule.order, _lane_kernel()
        )
