"""Metamorphic properties grounded in the paper's combinatorial structure.

Three families of properties that must hold for *any* correct transcription
of the five algorithms, checked on live runs:

**0-1 threshold consistency** (Section 2).  An oblivious comparison-exchange
schedule sorts a permutation grid :math:`\\mathcal{A}` at step ``t`` iff it
has sorted every threshold projection :math:`\\mathcal{A}^{01}_z` (zeros at
the ``z`` smallest entries, ``z = 1 .. N-1``) by step ``t``.  So the
permutation's sorting time must equal the *maximum* over the thresholds'
sorting times, and sorting must commute with thresholding
(:func:`check_threshold_consistency`).

**Order-isomorphism / relabeling invariance.**  Compare-exchange networks
see only the relative order of values: applying any strictly increasing map
``f`` to every entry must leave the step count unchanged and map the final
grid through the same ``f`` (:func:`check_relabeling_invariance`).

**Lemma invariants on live traces.**  The statically-tested lemma checkers
of :mod:`repro.zeroone.invariants` (Lemmas 1-3 for the row-major
algorithms, the Z/Y monotone chains of Lemmas 5-8 and 10 for the snakelike
ones) are wired into any observed run through :class:`InvariantObserver`,
so every 0-1 execution — including the ones the differential runner and
the Monte-Carlo samplers perform anyway — doubles as a lemma check.

All check functions return a list of human-readable violation strings —
empty when the property holds — matching the ``check_lemma*`` convention.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backends import get_backend, run_sort
from repro.backends.base import resolve_step_cap
from repro.core.runner import resolve_algorithm
from repro.core.schedule import LineOp, Schedule
from repro.errors import DimensionError
from repro.obs.context import no_observer
from repro.randomness import as_generator, as_seed_sequence
from repro.obs.events import Observer, RunEnd, RunStart, StepEvent
from repro.schedules import execution_backend
from repro.zeroone.invariants import (
    check_lemma1_column_sort,
    check_lemma2_odd_row_sort,
    check_lemma3_even_row_sort,
    check_lemma10,
    check_lemmas_5_to_8,
)
from repro.zeroone.threshold import is_zero_one

__all__ = [
    "check_threshold_consistency",
    "check_relabeling_invariance",
    "monotone_relabelings",
    "InvariantObserver",
    "run_with_invariants",
]


def _mesh_dims(grid: np.ndarray, what: str) -> tuple[int, int, int]:
    """Validate an unbatched square or ``1 × N`` grid → (rows, cols, side).

    ``side`` is the registry's notion: the row count on squares, the array
    length on linear (``1 × N``) meshes — exactly what
    :func:`repro.core.runner.resolve_algorithm` needs to resolve sided
    families against this grid.
    """
    if grid.ndim != 2 or (grid.shape[0] != grid.shape[1] and grid.shape[0] != 1):
        raise DimensionError(
            f"{what} takes one unbatched square or 1xN grid, "
            f"got shape {grid.shape}"
        )
    rows, cols = (int(v) for v in grid.shape)
    return rows, cols, cols if rows == 1 else rows


def _threshold(grid: np.ndarray, zeros: int) -> np.ndarray:
    """Rank-threshold projection for any mesh shape.

    Same semantics as :func:`repro.zeroone.threshold.threshold_at` (0 at
    the positions of the ``zeros`` smallest entries) without that helper's
    square-grid validation, so linear ``1 × N`` grids project too.
    """
    arr = np.asarray(grid)
    if zeros == 0:
        return np.ones_like(arr, dtype=np.int8)
    kth = np.sort(arr.reshape(-1))[zeros - 1]
    return (arr > kth).astype(np.int8)


def _sorting_times(
    algorithm: str | Schedule, grids: np.ndarray, backend: str, max_steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(steps, completed, finals) for a stack of single grids on ``backend``."""
    be = get_backend(backend)
    schedule = resolve_algorithm(algorithm)
    with no_observer():
        if be.supports_batch:
            outcome = run_sort(be, schedule, grids, max_steps=max_steps)
            return (
                np.atleast_1d(np.asarray(outcome.steps)),
                np.atleast_1d(np.asarray(outcome.completed)),
                np.asarray(outcome.final).reshape(grids.shape),
            )
        steps, completed, finals = [], [], []
        for grid in grids:
            outcome = run_sort(be, schedule, grid, max_steps=max_steps)
            steps.append(int(np.asarray(outcome.steps)))
            completed.append(bool(np.all(outcome.completed)))
            finals.append(np.asarray(outcome.final))
        return np.asarray(steps), np.asarray(completed), np.stack(finals)


def check_threshold_consistency(
    algorithm: str | Schedule,
    grid: np.ndarray,
    *,
    backend: str | None = None,
    thresholds: list[int] | None = None,
    max_steps: int | None = None,
) -> list[str]:
    """Section 2's reduction, as an executable property of one run.

    For a permutation grid with sorting time ``t_f``, every threshold
    projection must (a) sort within ``t_f`` steps, (b) equal the threshold
    of the sorted permutation afterwards, and — when all ``N-1`` thresholds
    are checked — (c) the slowest projection must take *exactly* ``t_f``
    steps.

    Accepts square and linear (``1 × N``) grids; ``backend=None`` picks
    the schedule's default execution backend.
    """
    grid = np.asarray(grid)
    rows, cols, side = _mesh_dims(grid, "threshold consistency")
    n_cells = rows * cols
    if len(np.unique(grid)) != n_cells:
        raise DimensionError("threshold consistency needs distinct entries")

    schedule = resolve_algorithm(algorithm, side)
    backend = execution_backend(backend)
    if max_steps is None:
        max_steps = resolve_step_cap(schedule, rows, cols)
    perm_steps, perm_done, perm_final = _sorting_times(
        schedule, grid[None], backend, max_steps
    )
    violations: list[str] = []
    if not bool(perm_done[0]):
        return [f"permutation run hit the step cap ({max_steps}) unsorted"]
    t_f = int(perm_steps[0])

    full_sweep = thresholds is None
    zs = list(range(1, n_cells)) if full_sweep else sorted(set(thresholds))
    if any(z < 1 or z >= n_cells for z in zs):
        raise DimensionError(f"thresholds must lie in 1..{n_cells - 1}")

    projected = np.stack([_threshold(grid, z) for z in zs])
    steps, completed, finals = _sorting_times(schedule, projected, backend, max_steps)
    for z, z_steps, z_done, z_final in zip(zs, steps, completed, finals):
        if not bool(z_done):
            violations.append(f"threshold z={z} hit the step cap unsorted")
            continue
        if int(z_steps) > t_f:
            violations.append(
                f"threshold z={z} took {int(z_steps)} steps > permutation's {t_f}"
            )
        expected = _threshold(perm_final[0], int(z))
        if not np.array_equal(z_final, expected):
            violations.append(
                f"threshold z={z}: sorted projection differs from projected sort"
            )
    if full_sweep and np.all(completed) and int(steps.max(initial=0)) != t_f:
        violations.append(
            f"slowest threshold took {int(steps.max())} steps but the "
            f"permutation took {t_f} — the 0-1 reduction says they must match"
        )
    return violations


def monotone_relabelings(n_cells: int, *, seed: int = 0) -> list[tuple[str, Callable]]:
    """Named strictly increasing value maps used by the relabeling check."""
    rng = as_generator(as_seed_sequence((seed, n_cells, 97)))
    table = np.sort(rng.choice(10 * n_cells, size=n_cells, replace=False))

    def affine(values: np.ndarray) -> np.ndarray:
        return 3 * values + 7

    def tabulated(values: np.ndarray) -> np.ndarray:
        return table[values]

    return [("affine-3v+7", affine), ("random-monotone-table", tabulated)]


def check_relabeling_invariance(
    algorithm: str | Schedule,
    grid: np.ndarray,
    *,
    backend: str | None = None,
    seed: int = 0,
    max_steps: int | None = None,
) -> list[str]:
    """Order-isomorphism: a strictly monotone relabeling of the values must
    not change the network's behaviour.

    The relabeled run must take exactly the same number of steps, and its
    final grid must be the relabeling of the original final grid.  Requires
    a permutation grid of ``0..N-1`` (the relabeling tables index by rank).
    Accepts square and linear (``1 × N``) grids; ``backend=None`` picks
    the schedule's default execution backend.
    """
    grid = np.asarray(grid)
    rows, cols, side = _mesh_dims(grid, "relabeling invariance")
    n_cells = rows * cols
    if sorted(grid.reshape(-1).tolist()) != list(range(n_cells)):
        raise DimensionError("relabeling invariance needs a 0..N-1 permutation grid")

    schedule = resolve_algorithm(algorithm, side)
    backend = execution_backend(backend)
    if max_steps is None:
        max_steps = resolve_step_cap(schedule, rows, cols)
    base_steps, base_done, base_final = _sorting_times(
        schedule, grid[None], backend, max_steps
    )
    violations: list[str] = []
    if not bool(base_done[0]):
        return [f"base run hit the step cap ({max_steps}) unsorted"]
    for name, fn in monotone_relabelings(n_cells, seed=seed):
        relabeled = fn(grid)
        r_steps, r_done, r_final = _sorting_times(
            schedule, relabeled[None], backend, max_steps
        )
        if not bool(r_done[0]):
            violations.append(f"{name}: relabeled run hit the step cap unsorted")
            continue
        if int(r_steps[0]) != int(base_steps[0]):
            violations.append(
                f"{name}: {int(r_steps[0])} steps != base {int(base_steps[0])}"
            )
        if not np.array_equal(r_final[0], fn(base_final[0])):
            violations.append(f"{name}: final grid is not the relabeled base final")
    return violations


def _col_only_step(step) -> bool:
    return all(
        isinstance(op, LineOp) and op.axis == "col" for op in step
    )


#: Step-phase (1-based) to lemma checker for the two row-major algorithms.
_ROW_MAJOR_PHASE_CHECKS = {
    "row_major_row_first": {
        1: ("Lemma 2", check_lemma2_odd_row_sort),
        2: ("Lemma 1", check_lemma1_column_sort),
        3: ("Lemma 3", check_lemma3_even_row_sort),
        4: ("Lemma 1", check_lemma1_column_sort),
    },
    "row_major_col_first": {
        1: ("Lemma 1", check_lemma1_column_sort),
        2: ("Lemma 2", check_lemma2_odd_row_sort),
        3: ("Lemma 1", check_lemma1_column_sort),
        4: ("Lemma 3", check_lemma3_even_row_sort),
    },
}


class InvariantObserver(Observer):
    """Check the paper's lemmas on every observed 0-1 run, live.

    Attach it (directly or via :func:`repro.obs.use_observer`) to any run of
    a registered algorithm on a single 0-1 grid and it applies, per step:

    * Lemma 1 on every column-only step (any algorithm — a column sort
      cannot change column weights);
    * Lemmas 2 and 3 on the row-sort phases of the two row-major
      algorithms (even sides, matching the paper's setting);

    and, when the run ends, the trace-level monotone chains:

    * Lemmas 5-8 (the Z statistics) for ``snake_1``;
    * Lemma 10 (the Y statistics) for ``snake_2``.

    Runs it cannot judge — batched runs, non-0-1 grids, backends that do
    not expose per-step grids — are skipped silently (``checked_steps``
    stays 0), so the observer is safe to leave attached globally.
    ``initial_grid`` supplies the pre-step-1 state so the first step's
    before/after lemmas can be checked too.

    Violations accumulate in :attr:`violations` across runs.
    """

    def __init__(
        self,
        *,
        initial_grid: np.ndarray | None = None,
        max_trace_steps: int = 4096,
    ):
        self.violations: list[str] = []
        self.checked_steps = 0
        self.completed_runs = 0
        self._initial = None if initial_grid is None else np.array(initial_grid)
        self._max_trace = int(max_trace_steps)
        self._reset()

    def _reset(self) -> None:
        self._active = False
        self._algorithm = ""
        self._side = 0
        self._cycle_len = 0
        self._prev: np.ndarray | None = None
        self._trace: list[np.ndarray] = []
        self._schedule: Schedule | None = None

    # ------------------------------------------------------------------
    # Observer hooks.
    # ------------------------------------------------------------------

    def on_run_start(self, event: RunStart) -> None:
        self._reset()
        if event.batch_shape not in ((), None) or event.rows != event.cols:
            return
        try:
            self._schedule = resolve_algorithm(event.algorithm)
        except Exception:
            return  # not a registry algorithm; nothing to assert
        self._active = True
        self._algorithm = event.algorithm
        self._side = event.side
        self._cycle_len = len(self._schedule.steps)
        if self._initial is not None and self._initial.shape == (
            event.side,
            event.side,
        ):
            self._prev = self._initial

    def on_step(self, event: StepEvent) -> None:
        if not self._active:
            return
        if event.grid is None:
            self._active = False  # backend exposes no per-step grids
            return
        grid = np.array(event.grid)
        if not is_zero_one(grid):
            self._active = False  # lemmas are statements about A^01 runs
            return
        phase = (event.t - 1) % self._cycle_len + 1
        prev, self._prev = self._prev, grid
        if len(self._trace) < self._max_trace:
            self._trace.append(grid)

        if prev is None or prev.shape != grid.shape:
            return
        even_side = self._side % 2 == 0
        checks = []
        if self._algorithm in _ROW_MAJOR_PHASE_CHECKS:
            if even_side:
                checks.append(_ROW_MAJOR_PHASE_CHECKS[self._algorithm][phase])
        elif _col_only_step(self._schedule.steps[phase - 1]):
            checks.append(("Lemma 1", check_lemma1_column_sort))
        for label, checker in checks:
            self.checked_steps += 1
            for msg in checker(prev, grid):
                self.violations.append(
                    f"{self._algorithm} side={self._side} t={event.t} {label}: {msg}"
                )

    def on_run_end(self, event: RunEnd) -> None:
        if not self._active:
            return
        if self._side % 2 == 0 and len(self._trace) >= 4:
            if self._algorithm == "snake_1":
                for msg in check_lemmas_5_to_8(self._trace):
                    self.violations.append(
                        f"snake_1 side={self._side} Lemmas 5-8: {msg}"
                    )
            elif self._algorithm == "snake_2":
                for msg in check_lemma10(self._trace):
                    self.violations.append(
                        f"snake_2 side={self._side} Lemma 10: {msg}"
                    )
        self.completed_runs += 1
        self._reset()


def run_with_invariants(
    algorithm: str | Schedule,
    grid: np.ndarray,
    *,
    backend: str | None = None,
    max_steps: int | None = None,
) -> list[str]:
    """Sort one 0-1 grid with an :class:`InvariantObserver` attached and
    return the lemma violations it observed (empty when all hold).

    ``backend=None`` picks the schedule's default execution backend."""
    grid = np.asarray(grid)
    if not is_zero_one(grid):
        raise DimensionError("run_with_invariants takes a 0-1 grid")
    schedule = resolve_algorithm(algorithm, int(np.asarray(grid).shape[-1]))
    observer = InvariantObserver(initial_grid=grid)
    run_sort(execution_backend(backend), schedule, grid,
             max_steps=max_steps, observer=observer)
    return observer.violations
