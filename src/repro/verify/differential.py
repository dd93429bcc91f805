"""Differential execution: every backend must tell the same story.

The backend layer promises that all registered executors — the NumPy and
C lane engines, the pure-Python oracle, the processor-level mesh machine — agree
*cell for cell* at every step, not just on the final grid.
:func:`differential_run` checks that promise on one concrete input: a
reference backend's trajectory is recorded with
:func:`repro.backends.iter_run`, then every other backend is stepped over
the same input and compared per step, per cell, plus step-count and
completion agreement from :func:`repro.backends.run_sort`.

Any disagreement is reported as a :class:`Mismatch` with the first
diverging step and a cell-level summary — exactly the artifact the
shrinker (:mod:`repro.verify.shrink`) minimizes into a reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import available_backends, iter_run, run_sort
from repro.backends.base import resolve_step_cap
from repro.core.runner import resolve_algorithm
from repro.core.schedule import Schedule
from repro.errors import DimensionError
from repro.obs.context import no_observer

__all__ = ["Mismatch", "DifferentialReport", "differential_run"]


@dataclass(frozen=True)
class Mismatch:
    """One observed disagreement between two backends."""

    kind: str  # "trajectory" | "steps" | "completion" | "final"
    backend: str
    reference: str
    t: int | None = None
    detail: str = ""

    def describe(self) -> str:
        at = f" at step {self.t}" if self.t is not None else ""
        return f"{self.kind}{at}: {self.backend} vs {self.reference}: {self.detail}"


@dataclass
class DifferentialReport:
    """Outcome of one differential run across a set of backends."""

    algorithm: str
    side: int
    backends: tuple[str, ...]
    steps: dict[str, int] = field(default_factory=dict)
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        head = (
            f"differential {self.algorithm} side={self.side} "
            f"backends={','.join(self.backends)}"
        )
        if self.ok:
            return f"{head}: agree after {max(self.steps.values(), default=0)} steps"
        return head + "\n" + "\n".join(m.describe() for m in self.mismatches)


def _first_cell_diff(a: np.ndarray, b: np.ndarray) -> str:
    diff = np.argwhere(np.asarray(a) != np.asarray(b))
    if diff.size == 0:
        return "equal"
    r, c = (int(v) for v in diff[0])
    return (
        f"{diff.shape[0]} differing cell(s), first at ({r}, {c}): "
        f"{a[r, c]} vs {b[r, c]}"
    )


def differential_run(
    algorithm: str | Schedule,
    grid: np.ndarray,
    *,
    backends: tuple[str, ...] | list[str] | None = None,
    reference: str | None = None,
    max_steps: int | None = None,
    check_trajectory: bool = True,
) -> DifferentialReport:
    """Run ``grid`` through every backend and compare the runs.

    Parameters
    ----------
    backends:
        Backend names to cross-check; defaults to every registered backend
        (:func:`repro.backends.available_backends`).
    reference:
        The backend whose trajectory the others are compared against;
        defaults to ``"vectorized"`` when present, else the first backend.
    check_trajectory:
        Compare the full per-step grids, not just step counts and finals.
        Costs one extra pass per backend; leave on except for large sides.

    The input grid is never modified.  Observers are suppressed for the
    comparison runs so ambient tracing does not see duplicate events.

    ``grid`` is one ``rows × cols`` mesh: square, linear (``1 × N`` — the
    registry's linear topology) or any other rectangle.  Sided families
    resolve with ``side = cols``.  Every backend runs every shape.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise DimensionError(
            f"differential_run takes one rows x cols grid, got shape {grid.shape}"
        )
    rows, cols = (int(v) for v in grid.shape)
    side = cols
    schedule = resolve_algorithm(algorithm, side)
    names = tuple(backends) if backends is not None else available_backends()
    if not names:
        raise DimensionError("no backends to cross-check")
    if reference is not None:
        ref = reference
    else:
        ref = "vectorized" if "vectorized" in names else names[0]
    if ref not in names:
        names = (ref, *names)
    if max_steps is None:
        max_steps = resolve_step_cap(schedule, rows, cols)

    report = DifferentialReport(algorithm=schedule.name, side=side, backends=names)

    with no_observer():
        outcomes = {}
        for name in names:
            outcome = run_sort(name, schedule, grid, max_steps=max_steps)
            outcomes[name] = outcome
            report.steps[name] = int(np.asarray(outcome.steps).max())

        ref_outcome = outcomes[ref]
        for name in names:
            if name == ref:
                continue
            outcome = outcomes[name]
            if bool(np.all(outcome.completed)) != bool(np.all(ref_outcome.completed)):
                report.mismatches.append(
                    Mismatch(
                        "completion", name, ref,
                        detail=f"completed={bool(np.all(outcome.completed))} "
                        f"vs {bool(np.all(ref_outcome.completed))}",
                    )
                )
            if report.steps[name] != report.steps[ref]:
                report.mismatches.append(
                    Mismatch(
                        "steps", name, ref,
                        detail=f"{report.steps[name]} vs {report.steps[ref]} steps",
                    )
                )
            if not np.array_equal(outcome.final, ref_outcome.final):
                report.mismatches.append(
                    Mismatch(
                        "final", name, ref,
                        detail=_first_cell_diff(outcome.final, ref_outcome.final),
                    )
                )

        if check_trajectory:
            horizon = max(report.steps.values(), default=0)
            horizon = min(max(horizon, 1), max_steps)
            ref_traj = [
                snap for _, snap in iter_run(ref, schedule, grid, horizon)
            ]
            for name in names:
                if name == ref:
                    continue
                for (t, snap), ref_snap in zip(
                    iter_run(name, schedule, grid, horizon), ref_traj
                ):
                    if not np.array_equal(snap, ref_snap):
                        report.mismatches.append(
                            Mismatch(
                                "trajectory", name, ref, t=t,
                                detail=_first_cell_diff(snap, ref_snap),
                            )
                        )
                        break
    return report
