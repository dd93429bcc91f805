"""Per-cycle convergence diagnostics for a sorting run.

A :class:`CycleRecord` snapshots, after each 4-step cycle of a run, the
quantities the paper's analysis watches: the number of inversions against
the target order (a global convergence measure), the relevant potential
(Z1 for the snakelike family, the M statistic's surplus for the row-major
family), the column zero-count spread of the threshold view, and the cell
holding the minimum.  :func:`run_diagnostics` produces the trace;
:func:`render_report` prints it — the `trace_report.py` example shows both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import get_backend, step_cap
from repro.backends.driver import emit_cycle, emit_run_end, emit_run_start, emit_step
from repro.core.orders import linearize, target_grid, validate_grid
from repro.core.runner import resolve_algorithm
from repro.core.schedule import Schedule
from repro.errors import DimensionError
from repro.obs.context import resolve_observer
from repro.obs.events import Observer
from repro.obs.timing import StopWatch
from repro.zeroone.smallest import min_cell
from repro.zeroone.threshold import threshold_matrix
from repro.zeroone.trackers import y1_statistic, z1_statistic
from repro.zeroone.weights import column_zeros, m_statistic

__all__ = ["CycleRecord", "run_diagnostics", "render_report", "inversions"]


def inversions(grid: np.ndarray, order: str) -> int:
    """Number of inverted pairs in the target-order traversal.

    Zero exactly when the grid is sorted; decreases (not necessarily
    monotonically per step, but overall) as a run converges.  O(N log N)
    via merge counting on the linearized sequence.
    """
    seq = np.asarray(linearize(grid, order), dtype=np.int64)
    if seq.ndim != 1:
        raise DimensionError("inversions expects a single grid")

    def count(arr: np.ndarray) -> tuple[np.ndarray, int]:
        if len(arr) <= 1:
            return arr, 0
        mid = len(arr) // 2
        left, a = count(arr[:mid])
        right, b = count(arr[mid:])
        merged = np.empty(len(arr), dtype=arr.dtype)
        inv = a + b
        i = j = k = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged[k] = left[i]
                i += 1
            else:
                merged[k] = right[j]
                inv += len(left) - i
                j += 1
            k += 1
        merged[k:] = left[i:] if i < len(left) else right[j:]
        return merged, inv

    return count(seq)[1]


@dataclass(frozen=True)
class CycleRecord:
    """State snapshot after step ``t`` (the end of a cycle, or the step cap)."""

    t: int
    inversions: int
    potential: int
    column_spread: int
    min_cell: tuple[int, int]
    sorted: bool


def _potential_for(schedule: Schedule, grid01: np.ndarray) -> int:
    if schedule.order == "row_major":
        return int(m_statistic(grid01))
    if schedule.name == "snake_2":
        return int(y1_statistic(grid01))
    return int(z1_statistic(grid01))


def run_diagnostics(
    algorithm: str | Schedule,
    grid: np.ndarray,
    *,
    max_steps: int | None = None,
    observer: Observer | None = None,
) -> list[CycleRecord]:
    """Run to completion, recording a :class:`CycleRecord` per cycle.

    The final record is taken at the (cycle-aligned) step where the grid
    first matches the target.  At most ``max_steps`` steps run: if the cap
    is hit, the last record is taken at step ``max_steps`` (mid-cycle when
    the cap is not a multiple of the cycle) and has ``sorted=False`` unless
    that step happens to leave the grid sorted.

    An observer (explicit or ambient) sees one ``on_step`` per executed
    step and one ``on_cycle`` per completed cycle whose ``info`` carries the
    full cycle record (inversions, potential, column spread, min cell) — the
    diagnostics runner is the reference producer of potential-trajectory
    traces.
    """
    schedule = resolve_algorithm(algorithm)
    work = np.asarray(grid)
    side = validate_grid(work)
    if work.ndim != 2:
        raise DimensionError("run_diagnostics expects a single grid")
    if max_steps is None:
        max_steps = step_cap(side)
    run = get_backend().prepare(schedule, work)
    target = target_grid(work, side, schedule.order)
    cycle = len(schedule.steps)
    records: list[CycleRecord] = []
    obs = resolve_observer(observer)

    def snapshot(t: int, work: np.ndarray) -> CycleRecord:
        grid01 = threshold_matrix(work)
        zeros = column_zeros(grid01)
        return CycleRecord(
            t=t,
            inversions=inversions(work, schedule.order),
            potential=_potential_for(schedule, grid01),
            column_spread=int(zeros.max() - zeros.min()),
            min_cell=min_cell(work),
            sorted=bool(np.array_equal(work, target)),
        )

    if obs is not None:
        emit_run_start(
            obs,
            executor="diagnostics",
            algorithm=schedule.name,
            rows=side,
            cols=side,
            max_steps=max_steps,
            order=schedule.order,
        )
    watch = StopWatch().start()
    records.append(snapshot(0, work))
    t = 0
    while t < max_steps:
        for _ in range(min(cycle, max_steps - t)):
            t += 1
            run.apply_step(t)
            if obs is not None:
                emit_step(obs, t=t, grid=run.materialize())
        work = run.materialize()
        rec = snapshot(t, work)
        records.append(rec)
        if obs is not None and t % cycle == 0:
            emit_cycle(
                obs,
                cycle=t // cycle,
                t=t,
                grid=work,
                info={
                    "inversions": rec.inversions,
                    "potential": rec.potential,
                    "column_spread": rec.column_spread,
                    "min_cell": list(rec.min_cell),
                    "sorted": rec.sorted,
                },
            )
        if rec.sorted:
            break
    if obs is not None:
        emit_run_end(
            obs,
            steps=records[-1].t if records[-1].sorted else -1,
            completed=records[-1].sorted,
            wall_time=watch.elapsed,
        )
    return records


def render_report(records: list[CycleRecord]) -> str:
    """Fixed-width text report of a diagnostics trace."""
    if not records:
        raise DimensionError("empty diagnostics trace")
    lines = [
        f"{'t':>6s} {'inversions':>11s} {'potential':>10s} "
        f"{'col spread':>11s} {'min cell':>10s} {'sorted':>7s}"
    ]
    for rec in records:
        lines.append(
            f"{rec.t:6d} {rec.inversions:11d} {rec.potential:10d} "
            f"{rec.column_spread:11d} {str(rec.min_cell):>10s} "
            f"{'yes' if rec.sorted else 'no':>7s}"
        )
    return "\n".join(lines)
