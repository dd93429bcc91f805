"""Foundation of the unified executor backend layer.

Every way of running a comparator :class:`~repro.core.schedule.Schedule`
against a grid — the lane-major batch runs of the ``vectorized`` backend
on any ``rows x cols`` mesh (C or NumPy engine), the pure-Python oracle,
the processor-level mesh machine, the transient fault injector of
:mod:`repro.core.faults` — is expressed as a
:class:`Backend`.  A backend's single obligation is :meth:`Backend.prepare`:
turn ``(schedule, grid)`` into an :class:`ExecutorRun`, a tiny state machine
the shared driver (:mod:`repro.backends.driver`) can step, probe for
completion, and snapshot.  The driver owns the run loop itself: step caps,
completion detection, wall timing, and the observer event stream.

This module holds the pieces the rest of the layer builds on:

* :class:`SortOutcome` — the one result type for sort-to-completion runs,
  carrying ``(rows, cols)`` so square and rectangular meshes share it;
* :func:`step_cap` / :func:`resolve_step_cap` — the one step-cap policy
  (square and rectangular), defined in :mod:`repro.core.schedule` and
  re-exported here;
* :class:`ExecutorRun` / :class:`Backend` — the backend protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import numpy as np

from repro.core.schedule import Schedule, resolve_step_cap, step_cap
from repro.errors import DimensionError

__all__ = [
    "SortOutcome",
    "step_cap",
    "resolve_step_cap",
    "ExecutorRun",
    "Backend",
]


@dataclass
class SortOutcome:
    """Result of a sort-to-completion run on any backend.

    Attributes
    ----------
    steps:
        Integer array (batch-shaped; 0-d for a single grid) with the first
        1-based step time after which the grid equals the target order, 0 if
        the input was already sorted, and -1 if the step cap was reached.
    completed:
        Boolean mask of batch elements that reached the target order.
    final:
        The grids after the run.
    max_steps:
        The cap that was in force.
    rows, cols:
        Mesh shape (equal on square meshes, ``rows == 1`` on a linear
        array).
    backend:
        Registry name of the backend that produced the outcome.
    """

    steps: np.ndarray
    completed: np.ndarray
    final: np.ndarray
    max_steps: int
    rows: int
    cols: int
    backend: str

    @property
    def all_completed(self) -> bool:
        return bool(np.all(self.completed))

    def steps_scalar(self) -> int:
        """The step count for an unbatched run (raises if batched)."""
        if self.steps.ndim != 0:
            raise DimensionError(
                f"steps_scalar() on a batched outcome of shape {self.steps.shape}"
            )
        return int(self.steps)


class ExecutorRun(ABC):
    """One in-flight run: mutable state plus the probes the driver needs.

    Concrete runs are created by :meth:`Backend.prepare` and stepped by the
    driver; they never emit observer events themselves.
    """

    rows: int
    cols: int
    batch_shape: tuple[int, ...]
    cycle_len: int

    @abstractmethod
    def apply_step(self, t: int) -> None:
        """Execute 1-based schedule step ``t``."""

    @abstractmethod
    def done_mask(self) -> np.ndarray:
        """Boolean mask (batch-shaped; 0-d for one grid) of sorted grids.

        Each call returns a fresh array the run never touches again, and
        two calls in a row give the same result: the driver diffs the new
        mask against the one it kept from the previous step.
        """

    def sort_to_completion(
        self, max_steps: int, step: Callable[[int], Any] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step until every grid is sorted or ``max_steps`` steps have run.

        Returns ``(steps, done)``, both batch-shaped: the first step after
        which each grid was sorted (0 if it already was, -1 if it never
        was) and the mask of sorted grids.  ``step(t)`` applies step ``t``:
        the driver passes one that also emits observer events, and ``None``
        means :meth:`apply_step`.  Backends with a fused loop override the
        ``None`` case.
        """
        if step is None:
            step = self.apply_step
        done = np.asarray(self.done_mask())
        steps = np.where(done, 0, np.full(self.batch_shape, -1, dtype=np.int64))
        t = 0
        while t < max_steps and not np.all(done):
            t += 1
            step(t)
            now = np.asarray(self.done_mask())
            newly = now & ~done
            if np.any(newly):
                steps = np.where(newly, t, steps)
                done = done | now
        return steps, done

    @abstractmethod
    def materialize(self) -> np.ndarray:
        """The current grid state as an array the caller may keep."""

    def final(self) -> np.ndarray:
        """Grid state handed to :class:`SortOutcome` when the run ends."""
        return self.materialize()

    def counters(self) -> dict[str, int]:
        """Work counters the run accumulated (the C engine's; see
        :data:`repro.backends.vectorized.COUNTERS`), empty for runs without."""
        return {}


class Backend(ABC):
    """A pluggable execution substrate for comparator schedules.

    Subclasses declare their :attr:`name` and implement :meth:`prepare`,
    which accepts any ``(..., rows, cols)`` batch.  All run-loop behaviour
    (caps, completion, timing, events) lives in
    :mod:`repro.backends.driver`, so a new backend is just a new way to
    apply one schedule step.
    """

    #: Registry name (``"vectorized"``, ``"reference"``, ``"mesh"``); also
    #: the executor label of the backend's ``RunStart`` events and traces.
    name: ClassVar[str]

    @abstractmethod
    def prepare(self, schedule: Schedule, grid: np.ndarray) -> ExecutorRun:
        """Validate inputs and build the run state for ``schedule`` on
        ``grid`` (the input array is never mutated)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"

