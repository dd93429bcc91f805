"""Tests for the comparator-schedule IR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.core.schedule import (
    FORWARD,
    REVERSE,
    LineOp,
    Schedule,
    Step,
    WrapOp,
    comparator_pairs,
    line_indices,
    lines_slice,
    pair_count,
    touched_cells,
    validate_schedule,
)
from repro.errors import DimensionError, ScheduleValidationError


class TestLineIndices:
    def test_all(self):
        np.testing.assert_array_equal(line_indices("all", 5), [0, 1, 2, 3, 4])

    def test_paper_odd_is_zero_based_even(self):
        np.testing.assert_array_equal(line_indices("odd", 6), [0, 2, 4])

    def test_paper_even(self):
        np.testing.assert_array_equal(line_indices("even", 6), [1, 3, 5])

    def test_slice_matches_indices(self):
        for lines in ("all", "odd", "even"):
            for side in (4, 5, 7):
                np.testing.assert_array_equal(
                    np.arange(side)[lines_slice(lines)], line_indices(lines, side)
                )

    def test_unknown(self):
        with pytest.raises(DimensionError):
            line_indices("prime", 6)


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


class TestTouchedCells:
    def test_wrap_mask(self):
        mask = touched_cells(WrapOp(), 4)
        assert mask[0, 3] and mask[1, 0]
        assert not mask[3, 3] and not mask[0, 0]

    def test_even_row_step_spares_edges(self):
        op = LineOp(axis="row", offset=1, direction=FORWARD, lines="all")
        mask = touched_cells(op, 6)
        assert not mask[:, 0].any()
        assert not mask[:, 5].any()
        assert mask[:, 1:5].all()

    def test_matches_comparator_pairs(self):
        for op in (
            LineOp(axis="row", offset=0, direction=FORWARD),
            LineOp(axis="col", offset=1, direction=REVERSE, lines="even"),
            WrapOp(),
        ):
            mask = touched_cells(op, 5)
            from_pairs = np.zeros((5, 5), dtype=bool)
            for low, high in comparator_pairs(op, 5, 5):
                from_pairs[low] = True
                from_pairs[high] = True
            np.testing.assert_array_equal(mask, from_pairs)


class TestValidateSchedule:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @pytest.mark.parametrize("side", [4, 6, 8, 10])
    def test_paper_algorithms_validate(self, name, side):
        validate_schedule(get_algorithm(name), side)

    def test_overlapping_step_rejected(self):
        bad = Schedule(
            name="bad",
            steps=(
                Step(
                    LineOp(axis="row", offset=0, direction=FORWARD),
                    LineOp(axis="col", offset=0, direction=FORWARD),
                ),
            ),
            order="row_major",
        )
        with pytest.raises(ScheduleValidationError):
            validate_schedule(bad, 4)

    def test_wrap_conflicts_with_odd_side_even_row_step(self):
        # At odd side the even row step reaches the last column, colliding
        # with the wrap op — the structural reason the paper needs 2n.
        conflicted = Schedule(
            name="conflict",
            steps=(Step(LineOp(axis="row", offset=1, direction=FORWARD), WrapOp()),),
            order="row_major",
        )
        validate_schedule(conflicted, 6)  # fine at even side
        with pytest.raises(ScheduleValidationError):
            validate_schedule(conflicted, 5)


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

    def test_describe_mentions_steps(self):
        text = get_algorithm("snake_2").describe()
        assert "snake_2" in text
        assert "reverse" in text
