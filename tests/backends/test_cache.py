"""Compiled-schedule LRU cache: hits, misses, keying, eviction."""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from repro.analysis import schedule_check
from repro.core import schedule as schedule_ir

from repro.backends import (
    CompiledSchedule,
    compiled_schedule,
    run_sort,
    run_steps,
    schedule_cache_clear,
    schedule_cache_info,
)
from repro.core.algorithms import get_algorithm
from repro.core.schedule import lower
from repro.experiments import sample
from repro.randomness import random_permutation_grid
from repro.schedules import available_families, build_schedule, mesh_shape


@pytest.fixture(autouse=True)
def clean_cache():
    schedule_cache_clear()
    yield
    schedule_cache_clear()


def test_repeat_compilation_hits_cache():
    schedule = get_algorithm("snake_1")
    first = compiled_schedule(schedule, 6, 6)
    info = schedule_cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    second = compiled_schedule(schedule, 6, 6)
    assert second is first
    info = schedule_cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_program_is_lowered_once_per_compilation():
    schedule = get_algorithm("snake_3")
    program = compiled_schedule(schedule, 5, 7).program
    assert compiled_schedule(schedule, 5, 7).program is program
    for ours, theirs in zip(program, lower(schedule, 5, 7)):
        np.testing.assert_array_equal(ours, theirs)


def test_cache_keyed_by_algorithm_and_shape():
    snake = get_algorithm("snake_1")
    row = get_algorithm("row_major_row_first")
    a = compiled_schedule(snake, 6, 6)
    b = compiled_schedule(snake, 8, 8)
    c = compiled_schedule(row, 6, 6)
    d = compiled_schedule(snake, 6, 8)  # rectangle: distinct from the square
    assert len({id(x) for x in (a, b, c, d)}) == 4
    assert schedule_cache_info().currsize == 4
    assert compiled_schedule(snake, 6, 8) is d


def test_direct_construction_bypasses_cache():
    schedule = get_algorithm("snake_1")
    cached = compiled_schedule(schedule, 6, 6)
    fresh = CompiledSchedule(schedule, 6, 6)
    assert fresh is not cached
    assert schedule_cache_info().currsize == 1


def test_structurally_equal_schedules_share_an_entry():
    a = get_algorithm("snake_1")
    b = get_algorithm("snake_1")
    compiled_schedule(a, 6, 6)
    compiled_schedule(b, 6, 6)
    info = schedule_cache_info()
    assert info.misses == 1 and info.hits == 1


def test_driver_runs_reuse_compilations(rng):
    schedule = get_algorithm("row_major_row_first")
    for _ in range(4):
        run_sort("vectorized", schedule, random_permutation_grid(6, rng=rng))
    info = schedule_cache_info()
    assert info.misses == 1
    assert info.hits >= 3


def test_clear_resets_statistics():
    compiled_schedule(get_algorithm("snake_1"), 6, 6)
    schedule_cache_clear()
    assert schedule_cache_info() == (0, 0, schedule_cache_info().maxsize, 0)


def test_cached_compilation_still_sorts(rng):
    schedule = get_algorithm("snake_1")
    grid = random_permutation_grid(6, rng=rng)
    compiled_schedule(schedule, 6, 6)
    work = run_steps("vectorized", schedule, grid, 8)
    info = schedule_cache_info()
    again = run_steps("vectorized", schedule, grid, 8)
    assert schedule_cache_info().hits > info.hits
    assert schedule_cache_info().misses == info.misses
    np.testing.assert_array_equal(work, again)


def _count_calls(monkeypatch, module, name: str) -> Counter:
    """Count ``module.name(schedule, rows, cols)`` calls per mesh key,
    wherever a ``repro`` module bound the function by name."""
    original = getattr(module, name)
    calls: Counter = Counter()

    def counting(schedule, rows, cols=None, *args, **kwargs):
        calls[schedule.name, int(rows), int(rows if cols is None else cols)] += 1
        return original(schedule, rows, cols, *args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("repro") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("backend", ["reference", "mesh"])
def test_cell_level_backends_validate_and_lower_once(backend, monkeypatch):
    """Three 64-grid sorts validate and lower each schedule once per mesh,
    not once per grid (192 times each): the lowering pass does both, and
    no executor runs the static verifier."""
    checks = _count_calls(monkeypatch, schedule_check, "check_schedule")
    lowerings = _count_calls(monkeypatch, schedule_ir, "_lower_pass")
    for seed in range(3):
        values = sample("snake_1", side=6, trials=64, seed=seed, backend=backend).values
        assert values.shape == (64,)
    assert checks == {}
    assert lowerings == {("snake_1", 6, 6): 1}


def _enumerated_operands(compiled: CompiledSchedule) -> tuple[np.ndarray, np.ndarray]:
    """:attr:`CompiledSchedule.operands` by a second enumeration of every
    comparator, marking each one a reverse-bubble line op fires."""
    lo, hi, _ = compiled.program
    reverse = np.array([
        isinstance(op, schedule_ir.LineOp) and op.direction == schedule_ir.REVERSE
        for step in compiled.schedule.steps
        for op in step
        for _ in schedule_ir.comparator_pairs(op, compiled.rows, compiled.cols)
    ], dtype=bool)
    return np.where(reverse, hi, lo).astype(np.intp), np.where(reverse, lo, hi).astype(np.intp)


def _operand_cases():
    for name in available_families():
        if name == "random_network":
            continue
        meshes = [mesh_shape(build_schedule(name, side), side) for side in range(2, 10)]
        for rows, cols in meshes + [(2, 3), (6, 5), (1, 16)]:
            schedule = build_schedule(name, cols)
            if not (schedule.requires_even_side and cols % 2):
                yield f"{name}-{rows}x{cols}", schedule, rows, cols
    for seed in range(4):
        for cells in (2, 9, 16):
            schedule = build_schedule("random_network", cells, seed=seed)
            yield f"random_network-{seed}-{cells}", schedule, 1, cells


OPERAND_CASES = list(_operand_cases())


@pytest.mark.parametrize(
    "schedule,rows,cols", [case[1:] for case in OPERAND_CASES],
    ids=[case[0] for case in OPERAND_CASES],
)
def test_operands_match_a_second_enumeration(schedule, rows, cols):
    compiled = CompiledSchedule(schedule, rows, cols)
    first, second = compiled.operands
    expected = _enumerated_operands(compiled)
    assert first.dtype == second.dtype == np.intp
    np.testing.assert_array_equal(first, expected[0])
    np.testing.assert_array_equal(second, expected[1])


def test_numpy_path_compiles_enumerate_each_op_once(monkeypatch):
    """Compiling for the NumPy lane engine (program and operands) walks
    every op's comparators once, in the lowering pass."""
    calls: Counter = Counter()
    original = schedule_ir.comparator_pairs

    def counting(op, rows, cols):
        calls[op] += 1
        return original(op, rows, cols)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("repro") and getattr(mod, "comparator_pairs", None) is original:
            monkeypatch.setattr(mod, "comparator_pairs", counting)
    for name in ("snake_2", "shearsort", "row_major_col_first"):
        schedule = build_schedule(name, 8)
        calls.clear()
        assert CompiledSchedule(schedule, 8, 8).operands[0].size > 0
        ops = [op for step in schedule.steps for op in step]
        assert sum(calls.values()) == len(ops), name
