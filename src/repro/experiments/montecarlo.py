"""Seeded Monte-Carlo runners for step-count and potential statistics.

All sampling is reproducible: a root seed is turned into independent child
streams with ``SeedSequence.spawn`` (see :mod:`repro.randomness`).  Runs are
batched — the vectorized engine advances every trial's grid simultaneously,
which is what makes Θ(N)-step experiments on hundreds of permutations cheap.

.. deprecated::
    The two historical entry points :func:`sample_sort_steps` and
    :func:`sample_statistic_after_steps` grew divergent signatures (one
    takes ``statistic``/``num_steps``, one takes ``max_steps``; different
    default ``input_kind`` and batch sizes).  They are kept as thin shims
    emitting :class:`DeprecationWarning` — new code should call the one
    keyword-only facade :func:`repro.experiments.sample`, which routes to
    the same internals and adds sharded parallel execution via
    :mod:`repro.campaign`.
"""

from __future__ import annotations

import warnings
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

__all__ = [
    "SMALL_SAMPLE_COUNT",
    "TrialStats",
    "summarize",
    "sample_sort_steps",
    "sample_statistic_after_steps",
]

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
    ``side × side``, linear families ``1 × side``) and, when the caller did
    not pick a backend, which backend executes it (``vectorized``).  An
    explicitly chosen backend that cannot run the schedule's mesh is
    rejected eagerly with a clear message instead of failing deep inside
    ``prepare``.
    """
    from repro.schedules import execution_backend, mesh_shape

    schedule = resolve_algorithm(algorithm, side)
    shape = mesh_shape(schedule, side)
    if backend is None or isinstance(backend, str):
        be = get_backend(execution_backend(backend))
    else:
        be = backend
    if shape[0] != shape[1] and not be.supports_rect:
        raise DimensionError(
            f"backend {be.name!r} only supports square meshes, but schedule "
            f"{schedule.name!r} runs on a {shape[0]}x{shape[1]} mesh; "
            f"use a backend that accepts it or leave backend unset"
        )
    return schedule, shape, be


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
    backend: str | Backend | None = "vectorized",
) -> np.ndarray:
    """Warning-free core of the historical ``sample_sort_steps``.

    Shared by the deprecation shim, the :func:`repro.experiments.sample`
    facade, and every campaign shard worker — one draw order, so the same
    ``seed`` yields the same values through every entry point.

    ``backend=None`` runs on the ``vectorized`` backend.
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
        if be.supports_batch:
            outcome = run_sort(
                be, schedule, grids, max_steps=max_steps, observer=observer
            )
            if not outcome.all_completed:
                raise StepLimitExceeded(max_steps, int(np.sum(~outcome.completed)))
            out[done : done + batch] = outcome.steps
        else:
            for i in range(batch):
                outcome = run_sort(
                    be, schedule, grids[i], max_steps=max_steps, observer=observer
                )
                if not outcome.all_completed:
                    raise StepLimitExceeded(max_steps, 1)
                out[done + i] = outcome.steps_scalar()
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
    backend: str | Backend | None = "vectorized",
) -> np.ndarray:
    """Warning-free core of the historical ``sample_statistic_after_steps``."""
    rng = as_generator(seed)
    if batch_size is None:
        batch_size = min(trials, 512)
    schedule, shape, be = _resolve_run_plan(algorithm, side, backend)
    chunks = []
    done = 0
    while done < trials:
        batch = min(batch_size, trials - done)
        grids = _draw_grids(shape, batch, input_kind, rng)
        if be.supports_batch:
            after = run_steps(be, schedule, grids, num_steps, observer=observer)
        else:
            after = np.stack([
                run_steps(be, schedule, grids[i], num_steps, observer=observer)
                for i in range(batch)
            ])
        chunks.append(np.asarray(statistic(after)))
        done += batch
    return np.concatenate([np.atleast_1d(c) for c in chunks])


def _deprecated(old: str) -> None:
    warnings.warn(
        f"{old} is deprecated; use repro.experiments.sample(...) instead "
        "(same values for the same seed, plus workers=/checkpoint_dir= for "
        "sharded parallel campaigns)",
        DeprecationWarning,
        stacklevel=3,
    )


def sample_sort_steps(
    algorithm: str | Schedule,
    side: int,
    trials: int,
    *,
    seed: SeedLike = 0,
    max_steps: int | None = None,
    input_kind: str = "permutation",
    batch_size: int | None = None,
    observer: Observer | None = None,
    backend: str | Backend = "vectorized",
) -> np.ndarray:
    """Step counts over ``trials`` random inputs.

    .. deprecated:: use :func:`repro.experiments.sample` with
       ``kind="sort_steps"`` — it returns the identical values for the
       same ``seed`` (wrapped in a :class:`~repro.campaign.SampleResult`).

    ``input_kind`` is ``"permutation"`` (random permutations of ``0..N-1``)
    or ``"zero_one"`` (the paper's random :math:`\\mathcal{A}^{01}`
    distribution).  Raises :class:`StepLimitExceeded` if any trial fails to
    finish — the algorithms have Θ(N) worst cases, so with the default cap
    this indicates a bug.

    Any registered backend works.  Batch-capable backends advance every
    trial's grid simultaneously; single-grid backends (the oracle, the mesh
    machine) run trial by trial.  Grids are drawn in identical batched RNG
    order either way, so the same ``seed`` yields the same inputs — and, as
    the backends agree step-for-step, the same step counts — on every
    backend.
    """
    _deprecated("sample_sort_steps")
    return _sort_steps_values(
        algorithm,
        side,
        trials,
        seed=seed,
        max_steps=max_steps,
        input_kind=input_kind,
        batch_size=batch_size,
        observer=observer,
        backend=backend,
    )


def sample_statistic_after_steps(
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
    backend: str | Backend = "vectorized",
) -> np.ndarray:
    """Sample ``statistic(grid_after_num_steps)`` over random inputs.

    .. deprecated:: use :func:`repro.experiments.sample` with
       ``kind="statistic"`` — it returns the identical values for the same
       ``seed`` (wrapped in a :class:`~repro.campaign.SampleResult`).

    ``statistic`` must accept a batched ``(..., side, side)`` array and
    return a batch of numbers (all the trackers in :mod:`repro.zeroone` do).
    Used for the moment experiments (E-L4, E-L9, E-L11, E-L14).  Single-grid
    backends run trial by trial over the same batched grid draws, then the
    statistic is applied to the re-stacked batch.
    """
    _deprecated("sample_statistic_after_steps")
    return _statistic_values(
        algorithm,
        side,
        trials,
        statistic,
        num_steps=num_steps,
        seed=seed,
        input_kind=input_kind,
        batch_size=batch_size,
        observer=observer,
        backend=backend,
    )
