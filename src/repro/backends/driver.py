"""The shared instrumented run-loop driver.

One module owns the run loop of every executor: step caps, completion
detection, wall timing, cap handling, and the
``RunStart``/``StepEvent``/``CycleEvent``/``RunEnd`` observer stream.  A
backend only knows how to apply one schedule step; the driver turns that
into sort-to-completion runs (:func:`run_sort`), fixed-step runs
(:func:`run_steps`), and step iterators (:func:`iter_run`).

This module is also the package's **single event-emission site**: every
``on_run_start``/``on_step``/``on_cycle``/``on_run_end`` dispatch in the
codebase goes through the ``emit_*`` helpers below (the diagnostics runner
calls them too), so observers see one schema regardless of executor.

An unobserved run, and a run whose observer reads no step, goes through
the run's fused :meth:`~repro.backends.base.ExecutorRun.sort_to_completion`
hook — one C call per batch on the ``vectorized`` backend's C engine; the
latter gets its ``RunStart``/``RunEnd`` around it.  Only an observer that consumes steps
(:func:`consumes_steps`: its class overrides ``on_step`` or ``on_cycle``)
makes the driver step one at a time, on the same backend, so event streams
are the same on every batched backend.  The driver then snapshots the
batch once at run start and once per step, and counts each step's swaps
from two snapshots in a row: ``count_nonzero(grid != previous) // 2``, as
the comparators of one step touch disjoint cells.  Counters a run
accumulates (:meth:`~repro.backends.base.ExecutorRun.counters`) go on the
``kernel`` span's meta when a profiler is installed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.backends.base import (
    Backend,
    ExecutorRun,
    SortOutcome,
    resolve_step_cap,
)
from repro.backends.registry import get_backend
from repro.core.schedule import Schedule
from repro.errors import DimensionError, StepLimitExceeded
from repro.obs.context import resolve_observer
from repro.obs.events import (
    CompositeObserver,
    CycleEvent,
    Observer,
    RunEnd,
    RunStart,
    StepEvent,
)
from repro.obs.prof import Span, span
from repro.obs.timing import StopWatch

__all__ = [
    "run_sort",
    "run_steps",
    "iter_run",
    "consumes_steps",
    "emit_run_start",
    "emit_step",
    "emit_cycle",
    "emit_run_end",
]


# ---------------------------------------------------------------------------
# Event emission — the only place in the package that dispatches to observers.
# ---------------------------------------------------------------------------

def emit_run_start(observer: Observer, **fields: Any) -> None:
    """Dispatch a :class:`RunStart` built from ``fields``."""
    observer.on_run_start(RunStart(**fields))


def emit_step(observer: Observer, **fields: Any) -> None:
    """Dispatch a :class:`StepEvent` built from ``fields``."""
    observer.on_step(StepEvent(**fields))


def emit_cycle(observer: Observer, **fields: Any) -> None:
    """Dispatch a :class:`CycleEvent` built from ``fields``."""
    observer.on_cycle(CycleEvent(**fields))


def emit_run_end(observer: Observer, **fields: Any) -> None:
    """Dispatch a :class:`RunEnd` built from ``fields``."""
    observer.on_run_end(RunEnd(**fields))


# ---------------------------------------------------------------------------
# Driver internals.
# ---------------------------------------------------------------------------

def _start_run(
    backend: Backend,
    run: ExecutorRun,
    schedule: Schedule,
    obs: Observer | None,
    max_steps: int | None,
) -> Callable[[int], None] | None:
    """Emit ``RunStart`` to ``obs`` and return the function that applies
    one step: ``None`` (the run's own loop) unless ``obs`` consumes steps."""
    if obs is None:
        return None
    emit_run_start(
        obs,
        executor=backend.name,
        algorithm=schedule.name,
        rows=run.rows,
        cols=run.cols,
        batch_shape=run.batch_shape,
        max_steps=max_steps,
        order=schedule.order,
    )
    return _stepper(run, obs) if consumes_steps(obs) else None


def consumes_steps(observer: object) -> bool:
    """Whether ``observer`` reads step events, for which a run steps singly.

    True when its class overrides :meth:`Observer.on_step` or
    :meth:`Observer.on_cycle`, for a
    :class:`~repro.obs.events.CompositeObserver` with such a child, and
    for an object that does not subclass :class:`Observer` (its hooks
    cannot be told apart).
    """
    if isinstance(observer, CompositeObserver):
        return any(consumes_steps(child) for child in observer.observers)
    if not isinstance(observer, Observer):
        return True
    return any(
        getattr(type(observer), hook) is not getattr(Observer, hook)
        for hook in ("on_step", "on_cycle")
    )


def _stepper(run: ExecutorRun, obs: Observer) -> Callable[[int], None]:
    """A step function that applies step ``t`` and emits its events."""
    previous = run.materialize()

    def step(t: int) -> None:
        nonlocal previous
        run.apply_step(t)
        # One copy out of the run per step; a cycle boundary's event and
        # the next step's swap count share it.
        grid = run.materialize()
        swaps = int(np.count_nonzero(grid != previous)) // 2
        emit_step(obs, t=t, grid=grid, swaps=swaps)
        if t % run.cycle_len == 0:
            emit_cycle(obs, cycle=t // run.cycle_len, t=t, grid=grid)
        previous = grid

    return step


def _check_start(start_t: int) -> None:
    """Step times are 1-based on every backend (the C lane loop would read
    before its program, the cell-level machines would wrap silently)."""
    if start_t < 1:
        raise DimensionError(f"step times are 1-based, got {start_t}")


def _record_counters(kernel: object, run: ExecutorRun) -> None:
    """Add the run's counters to the ``kernel`` span (profiled runs only)."""
    if isinstance(kernel, Span):
        for key, value in run.counters().items():
            kernel.meta[key] = kernel.meta.get(key, 0) + value


def _scalarize(value: np.ndarray) -> Any:
    """``RunEnd`` carries a plain int/bool for an unbatched run (observers
    match on ``is True``) and an array for a batch."""
    arr = np.asarray(value)
    if arr.ndim:
        return arr
    return bool(arr) if arr.dtype == bool else int(arr)


# ---------------------------------------------------------------------------
# Public driver entry points.
# ---------------------------------------------------------------------------

def run_sort(
    backend: str | Backend | None,
    schedule: Schedule,
    grid: np.ndarray,
    *,
    max_steps: int | None = None,
    raise_on_cap: bool = False,
    observer: Observer | None = None,
) -> SortOutcome:
    """Run ``schedule`` on ``grid`` until every grid in the batch reaches
    its target order (or the step cap is hit).

    Parameters
    ----------
    backend:
        Registry name or :class:`Backend` instance; ``None`` runs the
        default (``vectorized``).
    schedule:
        Algorithm schedule (see :mod:`repro.core.algorithms`).
    grid:
        ``(rows, cols)`` array or ``(..., rows, cols)`` batch; never
        modified.
    max_steps:
        Step cap; defaults to :func:`repro.core.schedule.resolve_step_cap`
        (the paper-calibrated :func:`~repro.core.schedule.step_cap`, loosened
        by a schedule's ``step_cap_hint`` metadata when present).
    raise_on_cap:
        If True, raise :class:`StepLimitExceeded` when the cap is hit with
        unsorted grids; otherwise report ``steps == -1`` for those entries.
    observer:
        Optional :class:`~repro.obs.events.Observer`; falls back to the
        ambient observer installed with :func:`repro.obs.use_observer`.
        Unless it consumes steps (:func:`consumes_steps`), the run takes
        the same fused loop as an unobserved one.

    Notes
    -----
    Sorted grids are fixed points of every schedule in this package (the
    test suite verifies this), so the first time a grid matches the target
    it stays matched and the recorded step count is exact — this mirrors
    the paper's t_f, the step at which "the sorting algorithm is complete".
    """
    be, obs = get_backend(backend), resolve_observer(observer)
    # Spans cost one ContextVar read when no profiler is installed (see
    # repro.obs.prof) — per run, never per step, so the zero-overhead
    # guarantee holds at the driver level.
    with span("run", backend=be.name, algorithm=schedule.name):
        with span("compile"):
            run = be.prepare(schedule, grid)
        if max_steps is None:
            max_steps = resolve_step_cap(schedule, run.rows, run.cols)
        step = _start_run(be, run, schedule, obs, max_steps)
        watch = StopWatch().start()
        with span("kernel") as kernel:
            steps, done = run.sort_to_completion(max_steps, step)
        _record_counters(kernel, run)
    if obs is not None:
        emit_run_end(
            obs,
            steps=_scalarize(np.where(done, steps, -1)),
            completed=_scalarize(done),
            wall_time=watch.elapsed,
        )

    completed = np.asarray(done)
    if raise_on_cap and not np.all(completed):
        raise StepLimitExceeded(max_steps, int(np.sum(~completed)))
    return SortOutcome(
        steps=np.asarray(steps),
        completed=completed,
        final=run.final(),
        max_steps=max_steps,
        rows=run.rows,
        cols=run.cols,
        backend=be.name,
    )


def run_steps(
    backend: str | Backend | None,
    schedule: Schedule,
    grid: np.ndarray,
    num_steps: int,
    *,
    start_t: int = 1,
    observer: Observer | None = None,
) -> np.ndarray:
    """Return the grid state after exactly ``num_steps`` schedule steps."""
    _check_start(start_t)
    be, obs = get_backend(backend), resolve_observer(observer)
    with span("run", backend=be.name, algorithm=schedule.name):
        with span("compile"):
            run = be.prepare(schedule, grid)
        step = _start_run(be, run, schedule, obs, num_steps) or run.apply_step
        watch = StopWatch().start()
        with span("kernel") as kernel:
            for t in range(start_t, start_t + num_steps):
                step(t)
        _record_counters(kernel, run)
    if obs is not None:
        emit_run_end(
            obs, steps=num_steps, completed=None,
            wall_time=watch.elapsed,
        )
    return run.final()


def iter_run(
    backend: str | Backend | None,
    schedule: Schedule,
    grid: np.ndarray,
    num_steps: int,
    *,
    start_t: int = 1,
    observer: Observer | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t, grid_after_step_t)`` for ``num_steps`` consecutive steps.

    Each yielded grid is an independent snapshot in the caller's layout
    (every backend copies its state out).  An observer receives the same
    event stream as :func:`run_steps`; ``on_run_end`` fires only if the
    iterator is exhausted.
    """
    _check_start(start_t)
    be, obs = get_backend(backend), resolve_observer(observer)
    # No kernel span here: a generator's frame is suspended at every yield,
    # so an open span would bill the consumer's code to the driver.
    with span("compile"):
        run = be.prepare(schedule, grid)
    step = _start_run(be, run, schedule, obs, num_steps) or run.apply_step
    watch = StopWatch().start()
    for t in range(start_t, start_t + num_steps):
        step(t)
        yield t, run.materialize()
    if obs is not None:
        emit_run_end(
            obs, steps=num_steps, completed=None,
            wall_time=watch.elapsed,
        )
