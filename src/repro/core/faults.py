"""Fault injection: comparator failures on the mesh.

Two failure models, both executed by a vectorized engine variant:

* **transient** — every comparator firing independently fails (becomes a
  no-op) with probability ``failure_rate``.  Because the schedule repeats
  and a sorted grid is a fixed point, the sort still completes with
  probability 1; the experiments measure the slowdown as the failure rate
  grows.
* **permanent** — a fixed set of *dead cell pairs* never exchanges.  Killing
  the wrap-around wires this way reproduces Section 1's observation
  structurally: the smallest-column adversary can then never be sorted.
  A dead pair that no comparator of the schedule fires on the mesh is
  refused, so a mistyped wire cannot pass for a healthy run.

The healthy path (``failure_rate=0`` and no dead pairs) is verified to be
step-identical to the ``"vectorized"`` backend.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.analysis.schedule_check import check_schedule
from repro.backends.base import SortOutcome
from repro.core.orders import target_grid, validate_grid
from repro.core.schedule import (
    FORWARD,
    LineOp,
    Op,
    Schedule,
    WrapOp,
    comparator_pairs,
    lines_slice,
    pair_count,
)
from repro.errors import DimensionError, ScheduleValidationError, StepLimitExceeded
from repro.randomness import SeedLike, as_generator

__all__ = ["FaultyCompiledSchedule", "faulty_run_until_sorted"]

Cell = tuple[int, int]
Pair = tuple[Cell, Cell]


def _normalize_pair(pair: Pair) -> Pair:
    a, b = pair
    return (a, b) if a <= b else (b, a)


class FaultyCompiledSchedule:
    """Vectorized executor with transient and/or permanent comparator faults."""

    def __init__(
        self,
        schedule: Schedule,
        side: int,
        *,
        failure_rate: float = 0.0,
        dead_pairs: Iterable[Pair] = (),
        rng: SeedLike = None,
    ):
        check_schedule(schedule, side, side).raise_for_structural()
        if not 0.0 <= failure_rate < 1.0:
            raise DimensionError(
                f"failure_rate must be in [0, 1), got {failure_rate}"
            )
        self.schedule = schedule
        self.side = int(side)
        self.failure_rate = float(failure_rate)
        self.rng = as_generator(rng)
        fired = {
            _normalize_pair(p)
            for step in schedule.steps
            for op in step
            for p in comparator_pairs(op, self.side, self.side)
        }
        dead: set[Pair] = set()
        for pair in dead_pairs:
            if _normalize_pair(pair) not in fired:
                raise DimensionError(
                    f"dead pair {pair} is not a comparator of schedule "
                    f"{schedule.name!r} on the {side}x{side} mesh"
                )
            dead.add(_normalize_pair(pair))
        self._steps: list[list[Callable[[np.ndarray], None]]] = [
            [self._compile_op(op, dead) for op in step] for step in schedule.steps
        ]

    # -- compilation -------------------------------------------------------

    def _alive_mask_for(self, op: Op, dead: set[Pair]) -> np.ndarray | None:
        """Static per-pair aliveness of an op (None when nothing is dead)."""
        pairs = comparator_pairs(op, self.side, self.side)
        alive = np.array(
            [_normalize_pair(p) not in dead for p in pairs], dtype=bool
        )
        return None if alive.all() else alive

    def _compile_op(self, op: Op, dead: set[Pair]) -> Callable[[np.ndarray], None]:
        side = self.side
        rate = self.failure_rate
        rng = self.rng

        if isinstance(op, WrapOp):
            static_alive = self._alive_mask_for(op, dead)  # shape (side-1,)

            def wrap_kernel(grid: np.ndarray) -> None:
                a = grid[..., : side - 1, side - 1]
                b = grid[..., 1:side, 0]
                lo = np.minimum(a, b)
                hi = np.maximum(a, b)
                alive = np.ones(a.shape, dtype=bool)
                if static_alive is not None:
                    alive &= static_alive
                if rate > 0.0:
                    alive &= rng.random(a.shape) >= rate
                a[...] = np.where(alive, lo, a)
                b[...] = np.where(alive, hi, b)

            return wrap_kernel

        if not isinstance(op, LineOp):
            raise ScheduleValidationError(
                f"the fault model has no kernel for {type(op).__name__} ops "
                f"(schedule {self.schedule.name!r})"
            )
        length = side
        p = pair_count(op.offset, length)
        ls = lines_slice(op.lines)
        lo_slice = slice(op.offset, op.offset + 2 * p, 2)
        hi_slice = slice(op.offset + 1, op.offset + 2 * p, 2)
        forward = op.direction == FORWARD
        if p == 0:
            return lambda grid: None

        # Static dead mask shaped (num_lines, p): comparator_pairs orders
        # pairs line-major, matching this reshape.
        static = self._alive_mask_for(op, dead)
        static_2d = None if static is None else static.reshape(-1, p)

        def kernel(grid: np.ndarray) -> None:
            if op.axis == "row":
                a = grid[..., ls, lo_slice]
                b = grid[..., ls, hi_slice]
            else:
                a = grid[..., lo_slice, ls]
                b = grid[..., hi_slice, ls]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            alive = np.ones(a.shape, dtype=bool)
            if static_2d is not None:
                if op.axis == "row":
                    alive &= static_2d
                else:
                    alive &= static_2d.T
            if rate > 0.0:
                alive &= rng.random(a.shape) >= rate
            if forward:
                a[...] = np.where(alive, lo, a)
                b[...] = np.where(alive, hi, b)
            else:
                a[...] = np.where(alive, hi, a)
                b[...] = np.where(alive, lo, b)

        return kernel

    # -- execution ---------------------------------------------------------

    def apply_step(self, grid: np.ndarray, t: int) -> None:
        if t < 1:
            raise DimensionError(f"step times are 1-based, got {t}")
        for kernel in self._steps[(t - 1) % len(self._steps)]:
            kernel(grid)


def faulty_run_until_sorted(
    schedule: Schedule,
    grid: np.ndarray,
    *,
    max_steps: int,
    failure_rate: float = 0.0,
    dead_pairs: Iterable[Pair] = (),
    rng: SeedLike = None,
    raise_on_cap: bool = False,
) -> SortOutcome:
    """Run to completion under the fault model (mirrors
    :func:`repro.backends.run_sort`)."""
    work = np.array(grid, copy=True)
    side = validate_grid(work)
    compiled = FaultyCompiledSchedule(
        schedule, side, failure_rate=failure_rate, dead_pairs=dead_pairs, rng=rng
    )
    target = target_grid(work, side, schedule.order)
    steps = np.full(work.shape[:-2], -1, dtype=np.int64)
    done = np.all(work == target, axis=(-2, -1))
    steps = np.where(done, 0, steps)
    t = 0
    while t < max_steps and not np.all(done):
        t += 1
        compiled.apply_step(work, t)
        now = np.all(work == target, axis=(-2, -1))
        newly = now & ~done
        if np.any(newly):
            steps = np.where(newly, t, steps)
            done = done | now
    completed = np.asarray(done)
    if raise_on_cap and not np.all(completed):
        raise StepLimitExceeded(max_steps, int(np.sum(~completed)))
    return SortOutcome(
        steps=np.asarray(steps), completed=completed, final=work, max_steps=max_steps
    )
