"""Lane runs retire sorted grids in place and check completion by witness.

Every test compares the driver against a test-local loop that steps the
whole batch on the reference oracle and compares every grid with its
target after every step — the straightforward definition of t_f.  Steps,
completion flags, final grids and the observer stream must match bit for
bit, whatever the batch shape, mesh, step cap or finishing order.  The
target itself is built on the first completion check, so fixed-step runs
never sort the batch.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backends.vectorized as vectorized
from repro.backends import get_backend, iter_run, run_sort, run_steps
from repro.core.algorithms import get_algorithm
from repro.core.orders import target_grid
from repro.obs.events import RecordingObserver
from repro.randomness import random_permutation_mesh
from repro.schedules import build_schedule

# (schedule, rows, cols): square, rectangular and linear meshes.
MESHES = [
    ("snake_1", 5, 5),
    ("row_major_row_first", 6, 6),
    ("snake_3", 4, 6),
    ("odd_even", 1, 12),
]


def _schedule(name: str):
    return build_schedule(name) if name == "odd_even" else get_algorithm(name)


def _full_check_sort(schedule, grid, rows, cols, max_steps, trace=None):
    """Step the whole batch on the reference oracle; compare every grid
    with its target each step."""
    work = np.array(grid, copy=True)
    target = target_grid(work, rows, schedule.order, cols=cols)
    done = np.all(work == target, axis=(-2, -1))
    steps = np.where(done, 0, -1)
    if done.all() or max_steps == 0:
        return steps, done, work
    for t, after in iter_run("reference", schedule, work, max_steps):
        before, work = work, after
        if trace is not None:
            trace.append((t, work.copy(), int(np.count_nonzero(before != work)) // 2))
        now = np.all(work == target, axis=(-2, -1))
        steps = np.where(now & ~done, t, steps)
        done = done | now
        if done.all():
            break
    return steps, done, work


def _batch(rows, cols, batch, seed):
    return random_permutation_mesh((rows, cols), batch=batch or None, rng=seed)


def _assert_same(outcome, reference):
    steps, done, final = reference
    assert outcome.steps.shape == steps.shape
    np.testing.assert_array_equal(outcome.steps, steps)
    np.testing.assert_array_equal(outcome.completed, done)
    assert outcome.final.shape == final.shape
    assert outcome.final.tobytes() == final.tobytes()


@pytest.mark.parametrize("batch", [(), (9,), (3, 4)])
@pytest.mark.parametrize("name, rows, cols", MESHES)
def test_outcome_matches_full_comparison(name, rows, cols, batch):
    schedule = _schedule(name)
    grids = _batch(rows, cols, batch, seed=rows * 100 + cols)
    outcome = run_sort("vectorized", schedule, grids)
    _assert_same(outcome, _full_check_sort(schedule, grids, rows, cols, outcome.max_steps))
    if batch:
        assert len(np.unique(outcome.steps)) > 1  # grids retire at different steps


@pytest.mark.parametrize("name, rows, cols", MESHES)
def test_inputs_sorted_at_t0(name, rows, cols):
    schedule = _schedule(name)
    grids = _batch(rows, cols, (3, 3), seed=5)
    target = target_grid(grids, rows, schedule.order, cols=cols)
    grids[0, 1] = target[0, 1]
    grids[2, 2] = target[2, 2]
    outcome = run_sort("vectorized", schedule, grids)
    assert outcome.steps[0, 1] == 0 and outcome.steps[2, 2] == 0
    _assert_same(outcome, _full_check_sort(schedule, grids, rows, cols, outcome.max_steps))

    single = target[1, 0]
    outcome = run_sort("vectorized", schedule, single)
    assert outcome.steps_scalar() == 0
    _assert_same(outcome, _full_check_sort(schedule, single, rows, cols, outcome.max_steps))


@pytest.mark.parametrize("batch", [(), (16,), (4, 4)])
@pytest.mark.parametrize("name, rows, cols", MESHES)
def test_step_cap_leaves_unsorted_grids_as_stepped(name, rows, cols, batch):
    schedule = _schedule(name)
    grids = _batch(rows, cols, batch, seed=17)
    full = run_sort("vectorized", schedule, grids)
    cap = int(np.median(full.steps))
    outcome = run_sort("vectorized", schedule, grids, max_steps=cap)
    reference = _full_check_sort(schedule, grids, rows, cols, cap)
    _assert_same(outcome, reference)
    if batch:
        assert not outcome.completed.all() and outcome.completed.any()


@pytest.mark.parametrize("name, rows, cols", MESHES)
def test_done_mask_is_fresh_and_repeatable(name, rows, cols):
    schedule = _schedule(name)
    grids = _batch(rows, cols, (2, 5), seed=3)
    grids[0, 4] = target_grid(grids[0, 4], rows, schedule.order, cols=cols)
    run = get_backend("vectorized").prepare(schedule, grids)
    for t in range(1, 4 * rows * cols):
        first = run.done_mask()
        second = run.done_mask()
        assert first.shape == second.shape == run.batch_shape == (2, 5)
        assert first is not second and not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)
        first[...] = ~first  # a caller's edits never reach the run
        np.testing.assert_array_equal(run.done_mask(), second)
        if second.all():
            break
        run.apply_step(t)
    assert run.done_mask().all()
    assert run.batch_shape == (2, 5)
    np.testing.assert_array_equal(
        run.final(), _full_check_sort(schedule, grids, rows, cols, t)[2]
    )


@pytest.mark.parametrize("name, rows, cols", MESHES)
def test_recording_observer_sees_the_full_comparison_stream(name, rows, cols):
    schedule = _schedule(name)
    grids = _batch(rows, cols, (12,), seed=29)
    rec = RecordingObserver()
    outcome = run_sort("vectorized", schedule, grids, observer=rec)
    expected: list = []
    reference = _full_check_sort(schedule, grids, rows, cols, outcome.max_steps, expected)
    _assert_same(outcome, reference)
    assert len(np.unique(outcome.steps)) > 1

    assert [event.t for event in rec.steps] == [t for t, _, _ in expected]
    for event, (t, grid, swaps) in zip(rec.steps, expected):
        assert event.grid.tobytes() == grid.tobytes(), t
        assert event.swaps == swaps, t
    cycle_len = len(schedule)
    cycles = [(t, grid) for t, grid, _ in expected if t % cycle_len == 0]
    assert [(event.cycle, event.t) for event in rec.cycles] == [
        (t // cycle_len, t) for t, _ in cycles
    ]
    for event, (t, grid) in zip(rec.cycles, cycles):
        assert event.grid.tobytes() == grid.tobytes(), t
    (end,) = rec.run_ends
    np.testing.assert_array_equal(end.steps, reference[0])


@pytest.fixture
def target_calls(monkeypatch):
    """Count the lane runs' target builds (one ``rank_grid`` call each)."""
    calls = []
    rank_grid = vectorized.rank_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return rank_grid(*args, **kwargs)

    monkeypatch.setattr(vectorized, "rank_grid", counted)
    return calls


@pytest.mark.parametrize("name, rows, cols", MESHES)
def test_fixed_step_runs_never_build_a_target(name, rows, cols, target_calls):
    schedule = _schedule(name)
    grids = _batch(rows, cols, (8,), seed=41)
    run_steps("vectorized", schedule, grids, 3 * len(schedule))
    for _ in iter_run("vectorized", schedule, grids, len(schedule)):
        pass
    assert target_calls == []


@pytest.mark.parametrize("name, rows, cols", MESHES)
def test_sort_run_builds_its_target_once(name, rows, cols, target_calls):
    schedule = _schedule(name)
    for runs, batch in enumerate([(), (8,), (2, 3)], start=1):
        outcome = run_sort("vectorized", schedule, _batch(rows, cols, batch, seed=43))
        assert outcome.completed.all()
        assert len(target_calls) == runs


@pytest.mark.parametrize("k", [0, 1, 5, 17])
@pytest.mark.parametrize("name, rows, cols", MESHES)
def test_first_done_mask_after_k_steps(name, rows, cols, k):
    schedule = _schedule(name)
    grids = _batch(rows, cols, (3, 4), seed=47 + k)
    grids[1, 2] = target_grid(grids[1, 2], rows, schedule.order, cols=cols)
    run = get_backend("vectorized").prepare(schedule, grids)
    for t in range(1, k + 1):
        run.apply_step(t)
    # The test-local full comparison after the same k steps.
    _, _, work = _full_check_sort(schedule, grids, rows, cols, k)
    target = target_grid(grids, rows, schedule.order, cols=cols)
    expected = np.all(work == target, axis=(-2, -1))
    assert expected[1, 2]
    np.testing.assert_array_equal(run.done_mask(), expected)
    np.testing.assert_array_equal(run.final(), work)


@pytest.mark.parametrize("name, rows, cols", MESHES)
def test_prepare_neither_aliases_nor_mutates_the_input(name, rows, cols):
    schedule = _schedule(name)
    grids = _batch(rows, cols, (6,), seed=53)
    original = grids.copy()
    run = get_backend("vectorized").prepare(schedule, grids)
    assert not np.shares_memory(run._lanes, grids)
    for t in range(1, 2 * len(schedule) + 1):
        run.apply_step(t)
        run.done_mask()
    assert grids.tobytes() == original.tobytes()
