"""Seeded Monte-Carlo runners for step-count and potential statistics.

All sampling is reproducible: a root seed is turned into independent child
streams with ``SeedSequence.spawn`` (see :mod:`repro.randomness`).  Runs are
batched — the vectorized engine advances every trial's grid simultaneously,
which is what makes Θ(N)-step experiments on hundreds of permutations cheap.

The public entry point is :func:`repro.experiments.sample`.  This module
holds its in-process draw loops (also run by every campaign shard worker)
and the summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from repro.backends import Backend, get_backend, run_sort, run_steps
from repro.backends.base import resolve_step_cap
from repro.core.runner import resolve_algorithm
from repro.core.schedule import Schedule
from repro.errors import DimensionError, StepLimitExceeded
from repro.obs.events import Observer
from repro.randomness import (
    SeedLike,
    as_generator,
    random_permutation_mesh,
    random_zero_one_mesh,
)

__all__ = ["SMALL_SAMPLE_COUNT", "TrialStats", "summarize"]

#: Below this trial count the normal-approximation CI is not trustworthy
#: (the CLT has not kicked in and the 1.96 z-quantile understates the
#: Student-t quantile by >5%); :meth:`TrialStats.describe` flags it.
SMALL_SAMPLE_COUNT = 30


@dataclass
class TrialStats:
    """Summary statistics of a sample of trial outcomes.

    The confidence interval is the classic normal approximation
    ``mean ± 1.96 * sem``: it treats the sample mean as Gaussian, which the
    CLT justifies only for moderately large samples of the bounded
    statistics measured here.  For ``count < SMALL_SAMPLE_COUNT`` the
    interval is still *computed* (callers may want it for plotting), but
    :attr:`ci95_reliable` is False and :meth:`describe` says so instead of
    silently printing a meaningless CI.
    """

    count: int
    mean: float
    std: float
    sem: float
    minimum: float
    maximum: float

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval for the mean.

        Valid for ``count >= SMALL_SAMPLE_COUNT``; see the class docstring
        for what happens below that.
        """
        half = 1.96 * self.sem
        return (self.mean - half, self.mean + half)

    @property
    def ci95_reliable(self) -> bool:
        """Whether the normal approximation behind :attr:`ci95` is sound."""
        return self.count >= SMALL_SAMPLE_COUNT

    def describe(self) -> str:
        lo, hi = self.ci95
        ci = (
            f"95% CI [{lo:.2f}, {hi:.2f}]"
            if self.ci95_reliable
            else f"CI unreliable: n={self.count} < {SMALL_SAMPLE_COUNT}"
        )
        return (
            f"mean={self.mean:.2f} ± {1.96 * self.sem:.2f} ({ci}), "
            f"std={self.std:.2f}, range [{self.minimum:.0f}, {self.maximum:.0f}], "
            f"trials={self.count}"
        )


def summarize(values: np.ndarray) -> TrialStats:
    """Summarize a 1-D sample."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise DimensionError("cannot summarize an empty sample")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return TrialStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=std,
        sem=std / sqrt(arr.size) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def _draw_grids(
    shape: tuple[int, int], batch: int, input_kind: str, rng
) -> np.ndarray:
    if input_kind == "permutation":
        return random_permutation_mesh(shape, batch=batch, rng=rng)
    if input_kind == "zero_one":
        return random_zero_one_mesh(shape, batch=batch, rng=rng)
    raise DimensionError(f"unknown input_kind {input_kind!r}")


def _resolve_run_plan(
    algorithm: str | Schedule,
    side: int,
    backend: str | Backend | None,
) -> tuple[Schedule, tuple[int, int], Backend]:
    """Resolve ``(schedule, mesh shape, backend)`` for one sampling run.

    The registry decides the mesh a ``side`` induces (square families run
    ``side × side``, linear families ``1 × side``); ``backend=None`` runs
    the default backend.  The driver refuses a backend that cannot run the
    schedule's mesh.
    """
    from repro.schedules import mesh_shape

    schedule = resolve_algorithm(algorithm, side)
    return schedule, mesh_shape(schedule, side), get_backend(backend)


def _sort_steps_values(
    algorithm: str | Schedule,
    side: int,
    trials: int,
    *,
    seed: SeedLike = 0,
    max_steps: int | None = None,
    input_kind: str = "permutation",
    batch_size: int | None = None,
    observer: Observer | None = None,
    backend: str | Backend | None = None,
) -> np.ndarray:
    """Step counts over ``trials`` random inputs (``kind="sort_steps"``).

    Shared by the :func:`repro.experiments.sample` facade and every
    campaign shard worker — one draw order, so the same ``seed`` yields the
    same values through every entry point.

    ``input_kind`` is ``"permutation"`` (random permutations of ``0..N-1``)
    or ``"zero_one"`` (the paper's random :math:`\\mathcal{A}^{01}`
    distribution).  Raises :class:`StepLimitExceeded` if any trial fails to
    finish — the algorithms have Θ(N) worst cases, so with the default cap
    this indicates a bug.

    Every backend runs the same batched draws, so the same ``seed`` yields
    the same step counts on every backend.  ``backend=None`` runs on the
    default backend.
    """
    rng = as_generator(seed)
    schedule, shape, be = _resolve_run_plan(algorithm, side, backend)
    if max_steps is None:
        max_steps = resolve_step_cap(schedule, *shape)
    if batch_size is None:
        batch_size = min(trials, 256)
    out = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        batch = min(batch_size, trials - done)
        grids = _draw_grids(shape, batch, input_kind, rng)
        outcome = run_sort(
            be, schedule, grids, max_steps=max_steps, observer=observer
        )
        if not outcome.all_completed:
            raise StepLimitExceeded(max_steps, int(np.sum(~outcome.completed)))
        out[done : done + batch] = outcome.steps
        done += batch
    return out


def _statistic_values(
    algorithm: str | Schedule,
    side: int,
    trials: int,
    statistic,
    *,
    num_steps: int = 1,
    seed: SeedLike = 0,
    input_kind: str = "zero_one",
    batch_size: int | None = None,
    observer: Observer | None = None,
    backend: str | Backend | None = None,
) -> np.ndarray:
    """``statistic(grid after num_steps)`` over random inputs
    (``kind="statistic"``).

    ``statistic`` must accept a batched ``(..., rows, cols)`` array and
    return a batch of numbers (all the trackers in :mod:`repro.zeroone`
    do).
    """
    rng = as_generator(seed)
    if batch_size is None:
        batch_size = min(trials, 512)
    schedule, shape, be = _resolve_run_plan(algorithm, side, backend)
    chunks = []
    done = 0
    while done < trials:
        batch = min(batch_size, trials - done)
        grids = _draw_grids(shape, batch, input_kind, rng)
        after = run_steps(be, schedule, grids, num_steps, observer=observer)
        chunks.append(np.asarray(statistic(after)))
        done += batch
    return np.concatenate([np.atleast_1d(c) for c in chunks])
