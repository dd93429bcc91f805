"""Fault injection: comparator failures on the mesh.

Two failure models, both run by the shared driver (``run_sort``,
``run_steps``, ``iter_run`` of :mod:`repro.backends`) over the one lowered
comparator program:

* **permanent** — a fixed set of *dead cell pairs* never exchanges.
  :func:`with_dead_pairs` is a pure schedule transform, so a faulty mesh
  runs on every backend and rectangle and can be certified.  Killing the
  wrap-around wires this way reproduces Section 1's observation
  structurally: the smallest-column adversary can then never be sorted.
* **transient** — every comparator firing independently fails (becomes a
  no-op) with probability ``failure_rate``: the :class:`TransientFaults`
  backend.  Because the schedule repeats and a sorted grid is a fixed
  point, the sort still completes with probability 1; the experiments
  measure the slowdown as the failure rate grows.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.backends.base import ExecutorRun
from repro.backends.compile import CompiledSchedule, compiled_schedule
from repro.backends.vectorized import LaneRun, VectorizedBackend
from repro.core.orders import Order, validate_shape
from repro.core.schedule import (
    Comparator,
    LineOp,
    PairOp,
    Schedule,
    Step,
    comparator_pairs,
    lower,
    pair_count,
)
from repro.errors import DimensionError
from repro.randomness import SeedLike, as_generator

__all__ = ["with_dead_pairs", "TransientFaults", "TransientRun"]

Shape = tuple[int, ...]


def with_dead_pairs(
    schedule: Schedule, rows: int, cols: int, dead_pairs: Iterable[Comparator]
) -> Schedule:
    """Drop the ``dead_pairs`` comparators of ``schedule`` on a mesh.

    On the ``rows x cols`` mesh, ops with no dead comparator are kept, ops
    whose comparators are all dead are dropped, and a partly dead op is
    lowered to one :class:`~repro.core.schedule.PairOp` per live
    comparator.  The result is named ``"<name>[dead=<count>]"``; with no
    dead pairs ``schedule`` itself is returned.  A dead pair the schedule
    never fires on the mesh (so a mistyped wire cannot pass for a healthy
    run) and a dead set that empties a step raise
    :class:`~repro.errors.DimensionError`; a schedule that is not a
    comparator network on the mesh raises as :func:`lower` does.
    """
    lo, hi, _ = lower(schedule, rows, cols)
    fired = {
        frozenset((divmod(low, cols), divmod(high, cols)))
        for low, high in zip(lo.tolist(), hi.tolist())
    }
    dead: set[frozenset] = set()
    for pair in dead_pairs:
        if frozenset(pair) not in fired:
            raise DimensionError(
                f"dead pair {pair} is not a comparator of schedule "
                f"{schedule.name!r} on the {rows}x{cols} mesh"
            )
        dead.add(frozenset(pair))
    if not dead:
        return schedule
    steps = []
    for index, step in enumerate(schedule.steps, start=1):
        ops = []
        for op in step:
            pairs = comparator_pairs(op, rows, cols)
            live = [pair for pair in pairs if frozenset(pair) not in dead]
            ops += [op] if len(live) == len(pairs) else [PairOp(*pair) for pair in live]
        if not ops:
            raise DimensionError(
                f"the dead pairs leave step {index} of schedule "
                f"{schedule.name!r} with no comparator on the {rows}x{cols} mesh"
            )
        steps.append(Step(*ops))
    return replace(schedule, name=f"{schedule.name}[dead={len(dead)}]", steps=tuple(steps))


@lru_cache(maxsize=128)
def _fault_sites(step: Step, rows: int, cols: int) -> tuple[tuple[Shape, ...], np.ndarray]:
    """Draw shapes and comparator cells of one step, for its transient
    failures.

    One draw per op that fires any comparator, in step order, shaped
    ``(lines, pairs)`` for a row op, ``(pairs, lines)`` for a column op and
    ``(pairs,)`` otherwise (the shapes fix the seeded failure stream).  The cells
    are raveled, shaped ``(2, comparators)`` (low cells, then high cells),
    in the order of the concatenated draws.  Cached: never mutate them.
    """
    shapes, cells = [], [np.empty((0, 2), dtype=np.intp)]
    for op in step:
        pairs = comparator_pairs(op, rows, cols)
        if not pairs:
            continue
        ravel = np.array(pairs, dtype=np.intp) @ np.array([cols, 1], dtype=np.intp)
        if isinstance(op, LineOp):
            length = cols if op.axis == "row" else rows
            ravel = ravel.reshape(-1, pair_count(op.offset, length), 2)
            if op.axis == "col":
                ravel = ravel.swapaxes(0, 1)
        shapes.append(ravel.shape[:-1])
        cells.append(ravel.reshape(-1, 2))
    return tuple(shapes), np.concatenate(cells).T


class TransientRun(LaneRun):
    """A lane-major run in which each comparator firing may fail.

    Every grid of the batch stays live to the end and draws its failures
    at every step, finished or not, so a seeded run reproduces one stream.
    """

    def __init__(
        self,
        compiled: CompiledSchedule,
        grid: np.ndarray,
        order: Order,
        failure_rate: float,
        rng: np.random.Generator,
    ):
        super().__init__(compiled, grid, order)
        self.failure_rate = failure_rate
        self.rng = rng

    def apply_step(self, t: int) -> None:
        if not self.failure_rate:
            super().apply_step(t)
            return
        lanes = self._lanes
        before = lanes.copy()
        self._run(t, 1, None)
        # Put back both cells of every failed comparator: the ops of a step
        # touch disjoint cells, so that is exactly a no-op comparator.
        shapes, cells = _fault_sites(self.compiled.schedule.step_at(t), self.rows, self.cols)
        if shapes:
            n = lanes.shape[1]
            draws = [
                (self.rng.random(self.batch_shape + shape) < self.failure_rate)
                .reshape(n, math.prod(shape))
                for shape in shapes
            ]
            grids, sites = np.nonzero(np.concatenate(draws, axis=1))
            failed = cells[:, sites]
            lanes[failed, grids] = before[failed, grids]

    def done_mask(self) -> np.ndarray:
        # A full comparison that retires no grid: the whole batch stays
        # live, so slot ``g`` is grid ``g``.
        target = self._completion_target()
        return np.all(self._lanes == target, axis=0).reshape(self.batch_shape)

    # Every step draws failures through apply_step: no fused loop.
    sort_to_completion = ExecutorRun.sort_to_completion


class TransientFaults(VectorizedBackend):
    """The ``vectorized`` backend with transient comparator failures.

    Each comparator firing fails independently with probability
    ``failure_rate`` in ``[0, 1)``, drawn from ``rng`` once per op in step
    order.  One instance keeps one stream across its runs.
    """

    name = "transient_faults"

    def __init__(self, failure_rate: float, rng: SeedLike = None):
        if not 0.0 <= failure_rate < 1.0:
            raise DimensionError(f"failure_rate must be in [0, 1), got {failure_rate}")
        self.failure_rate = float(failure_rate)
        self.rng = as_generator(rng)

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> TransientRun:
        arr = np.asarray(grid)
        rows, cols = validate_shape(arr)
        compiled = compiled_schedule(schedule, rows, cols)
        return TransientRun(compiled, arr, schedule.order, self.failure_rate, self.rng)
