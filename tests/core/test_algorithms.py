"""Tests for the five algorithm builders and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import compiled_schedule
from repro.core.algorithms import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    ROW_MAJOR_NAMES,
    SNAKE_NAMES,
    get_algorithm,
    snake_1,
    snake_2,
    snake_3,
)
from repro.core.reference import ReferenceMachine
from repro.core.schedule import FORWARD, REVERSE, LineOp, WrapOp
from repro.errors import UnsupportedMeshError
from repro.mesh import MeshMachine


class TestRegistry:
    def test_five_algorithms(self):
        assert len(ALGORITHM_NAMES) == 5
        assert set(ROW_MAJOR_NAMES) | set(SNAKE_NAMES) == set(ALGORITHM_NAMES)

    def test_get_by_name(self):
        for name in ALGORITHM_NAMES:
            schedule = get_algorithm(name)
            assert schedule.name == name
            assert len(schedule.steps) == 4

    def test_unknown_name(self):
        with pytest.raises(UnsupportedMeshError):
            get_algorithm("bitonic")

    def test_builders_return_fresh_schedules(self):
        assert ALGORITHMS["snake_1"]() == ALGORITHMS["snake_1"]()


def _on_zero_grid(machine):
    return lambda schedule, side: machine(schedule, np.zeros((side, side), dtype=np.int64))


# Every executor validates a schedule against its mesh with check_schedule.
EXECUTORS = pytest.mark.parametrize(
    "build",
    [
        _on_zero_grid(MeshMachine),
        lambda schedule, side: compiled_schedule(schedule, side, side),
        _on_zero_grid(ReferenceMachine),
    ],
    ids=["mesh", "compiled_schedule", "reference"],
)


class TestSideConstraints:
    @pytest.mark.parametrize("name", ROW_MAJOR_NAMES)
    @EXECUTORS
    def test_row_major_rejects_odd(self, name, build):
        with pytest.raises(UnsupportedMeshError):
            build(get_algorithm(name), 5)

    @pytest.mark.parametrize("name", SNAKE_NAMES)
    @EXECUTORS
    def test_snake_accepts_odd(self, name, build):
        build(get_algorithm(name), 5)

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @EXECUTORS
    def test_rejects_tiny(self, name, build):
        with pytest.raises(UnsupportedMeshError):
            build(get_algorithm(name), 1)

    @pytest.mark.parametrize("name", ROW_MAJOR_NAMES)
    def test_row_major_order_and_wrap(self, name):
        schedule = get_algorithm(name)
        assert schedule.order == "row_major"
        assert schedule.uses_wraparound
        assert schedule.requires_even_side

    @pytest.mark.parametrize("name", SNAKE_NAMES)
    def test_snake_order_no_wrap(self, name):
        schedule = get_algorithm(name)
        assert schedule.order == "snake"
        assert not schedule.uses_wraparound
        assert not schedule.requires_even_side


def _ops(schedule, step_idx):
    return schedule.steps[step_idx].ops


class TestPaperTranscription:
    """Pin each algorithm's steps to the paper's prose."""

    def test_row_first_cycle(self):
        s = get_algorithm("row_major_row_first")
        (op1,) = _ops(s, 0)
        assert (op1.axis, op1.offset, op1.direction, op1.lines) == ("row", 0, FORWARD, "all")
        (op2,) = _ops(s, 1)
        assert (op2.axis, op2.offset) == ("col", 0)
        ops3 = _ops(s, 2)
        assert any(isinstance(o, WrapOp) for o in ops3)
        row3 = next(o for o in ops3 if isinstance(o, LineOp))
        assert (row3.axis, row3.offset) == ("row", 1)
        (op4,) = _ops(s, 3)
        assert (op4.axis, op4.offset) == ("col", 1)

    def test_col_first_is_pairwise_swapped(self):
        a = get_algorithm("row_major_row_first")
        b = get_algorithm("row_major_col_first")
        assert b.steps[0] == a.steps[1]
        assert b.steps[1] == a.steps[0]
        assert b.steps[2] == a.steps[3]
        assert b.steps[3] == a.steps[2]

    def test_snake1_row_steps(self):
        s = snake_1()
        odd_rows, even_rows = _ops(s, 0)
        assert (odd_rows.lines, odd_rows.offset, odd_rows.direction) == ("odd", 0, FORWARD)
        assert (even_rows.lines, even_rows.offset, even_rows.direction) == ("even", 1, REVERSE)
        odd_rows3, even_rows3 = _ops(s, 2)
        assert (odd_rows3.offset, odd_rows3.direction) == (1, FORWARD)
        assert (even_rows3.offset, even_rows3.direction) == (0, REVERSE)

    def test_snake1_column_steps_uniform(self):
        s = snake_1()
        (col2,) = _ops(s, 1)
        assert (col2.axis, col2.offset, col2.lines) == ("col", 0, "all")
        (col4,) = _ops(s, 3)
        assert (col4.axis, col4.offset, col4.lines) == ("col", 1, "all")

    def test_snake2_shares_snake1_odd_steps(self):
        s1, s2 = snake_1(), snake_2()
        assert s2.steps[0] == s1.steps[0]
        assert s2.steps[2] == s1.steps[2]

    def test_snake2_column_parity_split(self):
        s = snake_2()
        odd_cols, even_cols = _ops(s, 1)
        assert (odd_cols.axis, odd_cols.lines, odd_cols.offset) == ("col", "odd", 0)
        assert (even_cols.axis, even_cols.lines, even_cols.offset) == ("col", "even", 1)
        odd_cols4, even_cols4 = _ops(s, 3)
        assert (odd_cols4.offset, even_cols4.offset) == (1, 0)
        # all column steps are ordinary bubble (smaller on top)
        for op in (odd_cols, even_cols, odd_cols4, even_cols4):
            assert op.direction == FORWARD

    def test_snake3_shares_snake2_even_steps(self):
        s2, s3 = snake_2(), snake_3()
        assert s3.steps[1] == s2.steps[1]
        assert s3.steps[3] == s2.steps[3]

    def test_snake3_row_steps_same_offset_both_parities(self):
        s = snake_3()
        odd_rows, even_rows = _ops(s, 0)
        assert odd_rows.offset == even_rows.offset == 0
        assert odd_rows.direction == FORWARD and even_rows.direction == REVERSE
        odd_rows3, even_rows3 = _ops(s, 2)
        assert odd_rows3.offset == even_rows3.offset == 1
