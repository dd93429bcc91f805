"""Static cost metrics of comparator schedules.

The paper counts time in *word steps*; hardware cost also depends on how
many comparators fire per step and how many wires the schedule needs.  This
module computes those statically from the IR:

* comparators per step and per cycle;
* wires used (with/without wrap) and the wire count of the mesh;
* total comparator firings for a run of ``t`` steps;
* "work" comparisons against the sequential sorting lower bound
  ``N log2 N`` — making precise how much redundant comparison work the
  Θ(N)-step bubble sorts perform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Schedule, lower
from repro.errors import DimensionError

__all__ = ["ScheduleMetrics", "schedule_metrics", "firings_for_steps"]


@dataclass(frozen=True)
class ScheduleMetrics:
    """Static cost summary of a schedule on a concrete side."""

    side: int
    steps_per_cycle: int
    comparators_per_step: tuple[int, ...]
    comparators_per_cycle: int
    wires_used: int
    wrap_wires_used: int

    @property
    def n_cells(self) -> int:
        return self.side * self.side

    @property
    def mean_comparators_per_step(self) -> float:
        return self.comparators_per_cycle / self.steps_per_cycle

    def work_ratio(self, steps: int) -> float:
        """Total comparator firings over ``steps`` steps divided by the
        sequential comparison lower bound ``N log2 N``."""
        if steps < 0:
            raise DimensionError(f"steps must be non-negative, got {steps}")
        total = firings_for_steps(self, steps)
        return total / (self.n_cells * math.log2(max(self.n_cells, 2)))


def schedule_metrics(schedule: Schedule, side: int) -> ScheduleMetrics:
    """Compute the static metrics of a schedule at a concrete side.

    A side the schedule is not defined on (an odd side for the row-major
    algorithms) raises as :func:`~repro.core.schedule.lower` does.
    """
    if side < 2:
        raise DimensionError(f"side must be >= 2, got {side}")
    lo, hi, off = lower(schedule, side, side)
    wires = np.unique(np.stack([np.minimum(lo, hi), np.maximum(lo, hi)]), axis=1)
    rows, cols = np.divmod(wires, side)
    # A wrap wire's ends share neither a row nor a column (``is_wrap``).
    wrap = (rows[0] != rows[1]) & (cols[0] != cols[1])
    per_step = np.diff(off).tolist()
    return ScheduleMetrics(
        side=side,
        steps_per_cycle=len(schedule.steps),
        comparators_per_step=tuple(per_step),
        comparators_per_cycle=sum(per_step),
        wires_used=wires.shape[1],
        wrap_wires_used=int(np.count_nonzero(wrap)),
    )


def firings_for_steps(metrics: ScheduleMetrics, steps: int) -> int:
    """Exact number of comparator firings during the first ``steps`` steps."""
    if steps < 0:
        raise DimensionError(f"steps must be non-negative, got {steps}")
    full_cycles, remainder = divmod(steps, metrics.steps_per_cycle)
    total = full_cycles * metrics.comparators_per_cycle
    total += sum(metrics.comparators_per_step[:remainder])
    return total
