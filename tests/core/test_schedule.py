"""Tests for the comparator-schedule IR."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.core.faults import with_dead_pairs
from repro.core.schedule import (
    FORWARD,
    REVERSE,
    LineOp,
    PairOp,
    Schedule,
    Step,
    WrapOp,
    comparator_pairs,
    is_wrap,
    lines_slice,
    lower,
    pair_count,
)
from repro.errors import DimensionError, ScheduleValidationError
from repro.schedules import available_families, get_family, mesh_shape, resolve


class TestLinesSlice:
    @pytest.mark.parametrize(
        "lines,side,expected",
        [
            ("all", 5, [0, 1, 2, 3, 4]),
            ("odd", 6, [0, 2, 4]),
            ("odd", 7, [0, 2, 4, 6]),
            ("even", 6, [1, 3, 5]),
            ("even", 5, [1, 3]),
        ],
    )
    def test_paper_parity_is_zero_based(self, lines, side, expected):
        # Paper-odd lines 1, 3, 5, ... are 0-based indices 0, 2, 4, ...
        np.testing.assert_array_equal(np.arange(side)[lines_slice(lines)], expected)

    def test_unknown(self):
        with pytest.raises(DimensionError):
            lines_slice("prime")


class TestPairCount:
    @pytest.mark.parametrize(
        "offset,side,expected",
        [(0, 4, 2), (1, 4, 1), (0, 5, 2), (1, 5, 2), (0, 2, 1), (1, 2, 0), (0, 1, 0)],
    )
    def test_counts(self, offset, side, expected):
        assert pair_count(offset, side) == expected

    def test_invalid_offset(self):
        with pytest.raises(DimensionError):
            pair_count(2, 4)


class TestOpValidation:
    def test_bad_axis(self):
        with pytest.raises(ScheduleValidationError):
            LineOp(axis="diag", offset=0, direction=1)

    def test_bad_direction(self):
        with pytest.raises(ScheduleValidationError):
            LineOp(axis="row", offset=0, direction=0)

    def test_bad_lines(self):
        with pytest.raises(ScheduleValidationError):
            LineOp(axis="row", offset=0, direction=1, lines="some")

    def test_empty_step(self):
        with pytest.raises(ScheduleValidationError):
            Step()

    def test_pair_op_accepts_wrap_wire(self):
        op = PairOp((0, 3), (1, 0))
        assert is_wrap(op) and is_wrap(WrapOp())
        assert not is_wrap(PairOp((0, 0), (0, 1)))
        assert not is_wrap(PairOp((0, 0), (1, 0)))

    @pytest.mark.parametrize("low, high", [((0, 0), (1, 1)), ((0, 3), (2, 0)), ((0, 0), (0, 2))])
    def test_pair_op_rejects_other_cells(self, low, high):
        with pytest.raises(ScheduleValidationError, match="wrap wire"):
            PairOp(low, high)

    @pytest.mark.parametrize(
        "low, high",
        [((0, 1.7), (0, 2)), ((0, 1.0), (0, 2)), ((0, "1"), (0, 2)), (0, (0, 1))],
    )
    def test_pair_op_rejects_non_integer_cells(self, low, high):
        with pytest.raises(ScheduleValidationError, match="integer"):
            PairOp(low, high)

    def test_pair_op_accepts_numpy_integers(self):
        op = PairOp((np.int64(0), np.int32(1)), (0, np.uint8(2)))
        assert op == PairOp((0, 1), (0, 2))
        assert all(type(v) is int for v in op.low + op.high)

    def test_empty_schedule(self):
        with pytest.raises(ScheduleValidationError):
            Schedule(name="x", steps=(), order="snake")


class TestComparatorPairs:
    def test_row_odd_forward(self):
        op = LineOp(axis="row", offset=0, direction=FORWARD, lines="all")
        pairs = comparator_pairs(op, 4, 4)
        assert ((0, 0), (0, 1)) in pairs
        assert ((0, 2), (0, 3)) in pairs
        assert len(pairs) == 8  # 4 rows x 2 pairs

    def test_reverse_swaps_low_high(self):
        op = LineOp(axis="row", offset=0, direction=REVERSE, lines="all")
        pairs = comparator_pairs(op, 2, 2)
        # smaller goes to the higher-index cell
        assert pairs == [((0, 1), (0, 0)), ((1, 1), (1, 0))]

    def test_col_even(self):
        op = LineOp(axis="col", offset=1, direction=FORWARD, lines="odd")
        pairs = comparator_pairs(op, 4, 4)
        assert ((1, 0), (2, 0)) in pairs
        assert all(low[1] in (0, 2) for low, _ in pairs)

    def test_wrap(self):
        pairs = comparator_pairs(WrapOp(), 4, 4)
        assert pairs == [
            ((0, 3), (1, 0)),
            ((1, 3), (2, 0)),
            ((2, 3), (3, 0)),
        ]

    def test_even_row_step_spares_edges(self):
        op = LineOp(axis="row", offset=1, direction=FORWARD, lines="all")
        cells = {cell for pair in comparator_pairs(op, 6, 6) for cell in pair}
        assert cells == {(r, c) for r in range(6) for c in range(1, 5)}

    def test_rectangular_mesh(self):
        # A row op pairs along the columns, a column op along the rows.
        row = LineOp(axis="row", offset=0, direction=FORWARD)
        assert comparator_pairs(row, 2, 5) == [
            ((0, 0), (0, 1)), ((0, 2), (0, 3)), ((1, 0), (1, 1)), ((1, 2), (1, 3)),
        ]
        col = LineOp(axis="col", offset=1, direction=FORWARD)
        assert comparator_pairs(col, 2, 5) == []
        assert comparator_pairs(col, 3, 1) == [((1, 0), (2, 0))]
        assert comparator_pairs(WrapOp(), 3, 4) == [((0, 3), (1, 0)), ((1, 3), (2, 0))]
        assert comparator_pairs(WrapOp(), 1, 12) == []

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @pytest.mark.parametrize("side", [4, 6])
    def test_step_pairs_are_disjoint(self, name, side):
        schedule = get_algorithm(name)
        for step in schedule.steps:
            cells = [c for op in step for pair in comparator_pairs(op, side, side) for c in pair]
            assert len(cells) == len(set(cells))


class TestScheduleApi:
    def test_step_at_cycles(self):
        schedule = get_algorithm("snake_1")
        assert schedule.step_at(1) is schedule.steps[0]
        assert schedule.step_at(5) is schedule.steps[0]
        assert schedule.step_at(4) is schedule.steps[3]

    def test_step_at_rejects_zero(self):
        with pytest.raises(DimensionError):
            get_algorithm("snake_1").step_at(0)

    def test_uses_wraparound(self):
        assert get_algorithm("row_major_row_first").uses_wraparound
        assert not get_algorithm("snake_1").uses_wraparound

    def test_uses_wraparound_sees_wrap_pair(self):
        steps = (Step(LineOp("row", 0, FORWARD)), Step(PairOp((1, 3), (2, 0))))
        assert Schedule(name="x", steps=steps, order="row_major").uses_wraparound

    def test_describe_mentions_steps(self):
        text = get_algorithm("snake_2").describe()
        assert "snake_2" in text
        assert "reverse" in text


def _lowering_cases():
    cases = []
    for name in available_families(include_pathological=True):
        family = get_family(name)
        for side in range(2, 7):
            if family.requires_even_side and side % 2:
                continue
            schedule = resolve("random_network[seed=3]" if name == "random_network" else name, side)
            cases.append(pytest.param(schedule, *mesh_shape(schedule, side), id=f"{name}-{side}"))
    cases += [
        pytest.param(get_algorithm("snake_1"), 3, 5, id="snake_1-3x5"),
        pytest.param(get_algorithm("snake_2"), 1, 8, id="snake_2-1x8"),
        pytest.param(resolve("odd_even", 7), 1, 7, id="odd_even-1x7"),
        pytest.param(
            with_dead_pairs(get_algorithm("row_major_row_first"), 4, 4, [((0, 3), (1, 0))]),
            4, 4, id="dead_wrap_pair-4x4",
        ),
        pytest.param(resolve("random_network[seed=1]", 9), 1, 9, id="random_network-seed1"),
        pytest.param(resolve("random_network[seed=2]", 9), 1, 9, id="random_network-seed2"),
    ]
    return cases


class TestLower:
    @pytest.mark.parametrize("schedule, rows, cols", _lowering_cases())
    def test_program_lowers_every_comparator(self, schedule, rows, cols):
        lo, hi, off = lower(schedule, rows, cols)
        assert lo.dtype == hi.dtype == np.int32 and off.dtype == np.int64
        assert len(off) == len(schedule.steps) + 1 and off[0] == 0 and off[-1] == len(lo)
        for i, step in enumerate(schedule.steps):
            pairs = [p for op in step for p in comparator_pairs(op, rows, cols)]
            got = list(zip(lo[off[i]:off[i + 1]].tolist(), hi[off[i]:off[i + 1]].tolist()))
            assert got == [(r1 * cols + c1, r2 * cols + c2) for (r1, c1), (r2, c2) in pairs]
        for array in (lo, hi, off):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0


class TestScheduleHash:
    def test_equal_schedules_hash_equal_and_ignore_metadata(self):
        steps = (Step(LineOp("row", 0, FORWARD)), Step(PairOp((1, 3), (2, 0))))
        one = Schedule(name="x", steps=steps, order="row_major", metadata={"seed": 1})
        other = Schedule(name="x", steps=steps, order="row_major", metadata={"seed": 2})
        assert one == other and hash(one) == hash(other) == hash(one)
        assert hash(one) != hash(Schedule(name="y", steps=steps, order="row_major"))

    def test_hash_is_recomputed_after_unpickling_in_another_process(self):
        """``str`` hashes are salted per process: a schedule shipped to a
        worker must hash like one the worker builds itself."""
        schedule = resolve("random_network[seed=1]", 9)
        hash(schedule)
        code = (
            "import pickle, sys\n"
            "from repro.schedules import resolve\n"
            "theirs = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
            "ours = resolve('random_network[seed=1]', 9)\n"
            "assert theirs == ours\n"
            "assert hash(theirs) == hash(ours), 'stale hash'\n"
            "assert {ours: 1}[theirs] == 1\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        result = subprocess.run(
            [sys.executable, "-c", code, pickle.dumps(schedule).hex()],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert result.returncode == 0, result.stderr
