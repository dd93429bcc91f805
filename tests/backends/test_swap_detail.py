"""Per-step swap counting is an opt-in observer capability.

The vectorized kernels must diff the whole (possibly batched) grid to count
swaps, so the driver only asks for them when the attached observer declares
``wants_swap_detail``.  Cell-level backends count swaps for free and always
report them.
"""

from __future__ import annotations

import pytest

from repro.backends import run_sort, wants_swap_detail
from repro.core.algorithms import get_algorithm
from repro.obs.events import (
    CompositeObserver,
    Observer,
    RecordingObserver,
    StepEvent,
)
from repro.randomness import random_permutation_grid


class PlainStepCollector(Observer):
    """An observer that records steps without opting into swap detail."""

    def __init__(self):
        self.steps: list[StepEvent] = []

    def on_step(self, event: StepEvent) -> None:
        self.steps.append(event)


def test_observer_base_does_not_want_swap_detail():
    assert Observer().wants_swap_detail is False
    assert wants_swap_detail(PlainStepCollector()) is False
    assert wants_swap_detail(RecordingObserver()) is True


def test_composite_opts_in_when_any_child_does():
    plain = PlainStepCollector()
    assert not wants_swap_detail(CompositeObserver([plain]))
    assert wants_swap_detail(CompositeObserver([plain, RecordingObserver()]))


def test_vectorized_omits_swaps_without_opt_in(rng):
    obs = PlainStepCollector()
    grid = random_permutation_grid(6, rng=rng)
    run_sort("vectorized", get_algorithm("snake_1"), grid, observer=obs)
    assert obs.steps
    assert all(event.swaps is None for event in obs.steps)


def test_vectorized_reports_swaps_on_opt_in(rng):
    rec = RecordingObserver()
    grid = random_permutation_grid(6, rng=rng)
    run_sort("vectorized", get_algorithm("snake_1"), grid, observer=rec)
    assert rec.steps
    assert all(event.swaps is not None for event in rec.steps)
    assert sum(event.swaps for event in rec.steps) > 0


@pytest.mark.parametrize("backend", ["reference", "mesh"])
def test_cell_level_backends_always_count(backend, rng):
    obs = PlainStepCollector()
    grid = random_permutation_grid(6, rng=rng)
    run_sort(backend, get_algorithm("snake_1"), grid, observer=obs)
    assert obs.steps
    assert all(event.swaps is not None for event in obs.steps)


def test_swap_totals_agree_across_backends(rng):
    grid = random_permutation_grid(6, rng=rng)
    schedule = get_algorithm("row_major_row_first")
    totals = {}
    for backend in ("vectorized", "reference", "mesh"):
        rec = RecordingObserver()
        run_sort(backend, schedule, grid, observer=rec)
        totals[backend] = sum(event.swaps for event in rec.steps)
    assert totals["vectorized"] == totals["reference"] == totals["mesh"]
    assert totals["vectorized"] > 0
