"""E-BACKENDS: the unified backend layer's overhead and cache ablations.

True microkernel benchmarks (pytest-benchmark repeats them):

* the schedule-compilation LRU cache: cold compile vs warm lookup, and its
  effect on a Monte-Carlo sampling loop that re-resolves the same
  ``(algorithm, side)`` pair per batch;
* driver overhead: ``run_sort`` through the backend layer vs driving the
  compiled kernels by hand;
* backend comparison on an identical small workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    CompiledSchedule,
    compiled_schedule,
    run_sort,
    schedule_cache_clear,
)
from repro.core.algorithms import get_algorithm
from repro.core.orders import target_grid
from repro.experiments.montecarlo import _sort_steps_values
from repro.randomness import random_permutation_grid

SIDE = 32
STEPS = 64


def bench_compile_cold(benchmark):
    """Full schedule compilation (validation + kernel construction),
    cache cleared every round — what every run paid before the cache."""
    schedule = get_algorithm("snake_1")

    def run():
        schedule_cache_clear()
        return compiled_schedule(schedule, SIDE)

    benchmark(run)


def bench_compile_warm(benchmark):
    """Cache hit for the same ``(schedule, side)`` key."""
    schedule = get_algorithm("snake_1")
    schedule_cache_clear()
    compiled_schedule(schedule, SIDE)

    def run():
        return compiled_schedule(schedule, SIDE)

    benchmark(run)


def bench_sampler_with_cache(benchmark):
    """Monte-Carlo sampling loop with small batches: each batch re-resolves
    the compilation, so the cache is hit once per batch."""

    def run():
        return _sort_steps_values("snake_1", 12, 32, seed=0, batch_size=4)

    benchmark(run)


def bench_sampler_cold_cache(benchmark):
    """The identical sampling loop but with the cache cleared each round —
    an upper bound on what repeated compilation used to cost."""

    def run():
        schedule_cache_clear()
        return _sort_steps_values("snake_1", 12, 32, seed=0, batch_size=4)

    benchmark(run)


def bench_driver_run_sort(benchmark):
    """Sort-to-completion through the backend layer (vectorized backend)."""
    grids = random_permutation_grid(16, batch=16, rng=1)
    schedule = get_algorithm("snake_1")

    def run():
        return run_sort("vectorized", schedule, grids)

    benchmark(run)


def bench_driver_manual_loop(benchmark):
    """The same workload driven by hand against the compiled kernels —
    the driver's bookkeeping overhead is the difference."""
    grids = random_permutation_grid(16, batch=16, rng=1)
    compiled = CompiledSchedule(get_algorithm("snake_1"), 16)
    target = target_grid(grids, 16, "snake")

    def run():
        work = grids.copy()
        t = 0
        done = np.all(work == target, axis=(-2, -1))
        while t < 4096 and not done.all():
            t += 1
            compiled.apply_step(work, t)
            done = np.all(work == target, axis=(-2, -1))
        return t

    benchmark(run)


@pytest.mark.parametrize("backend", ["vectorized", "reference", "mesh"])
def bench_backend_small_sort(benchmark, backend):
    """All three backends on an identical side-8 sort — the price of each
    execution substrate under the same driver."""
    grid = random_permutation_grid(8, rng=0)
    schedule = get_algorithm("snake_1")

    def run():
        return run_sort(backend, schedule, grid)

    benchmark(run)
