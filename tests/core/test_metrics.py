"""Tests for the static schedule metrics."""

from __future__ import annotations

import pytest

from repro.schedules import build_shearsort
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.core.faults import with_dead_pairs
from repro.core.metrics import firings_for_steps, schedule_metrics
from repro.errors import DimensionError, UnsupportedMeshError
from repro.mesh.machine import MeshMachine
from repro.randomness import random_permutation_grid


class TestKnownCounts:
    def test_row_first_side4(self):
        m = schedule_metrics(get_algorithm("row_major_row_first"), 4)
        # step 1: 4 rows x 2 pairs = 8; step 2: same for cols = 8;
        # step 3: 4 rows x 1 even pair + 3 wrap = 7; step 4: 7? cols even: 4 x 1 = 4
        assert m.comparators_per_step == (8, 8, 7, 4)
        assert m.comparators_per_cycle == 27
        assert m.wrap_wires_used == 3

    def test_snake1_side4(self):
        m = schedule_metrics(get_algorithm("snake_1"), 4)
        # step 1: odd rows 2x2 + even rows 2x1 = 6; step 2: 4x2 = 8
        # step 3: odd rows 2x1 + even rows 2x2 = 6; step 4: 4x1 = 4
        assert m.comparators_per_step == (6, 8, 6, 4)
        assert m.wrap_wires_used == 0

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_wires_within_mesh(self, name):
        side = 6
        m = schedule_metrics(get_algorithm(name), side)
        mesh_wires = 2 * side * (side - 1) + (side - 1 if m.wrap_wires_used else 0)
        assert m.wires_used <= mesh_wires

    def test_bad_side(self):
        with pytest.raises(DimensionError):
            schedule_metrics(get_algorithm("snake_1"), 1)

    @pytest.mark.parametrize("name", ["row_major_row_first", "row_major_col_first"])
    def test_odd_side_row_major_is_refused(self, name):
        # The paper defines the row-major algorithms for sqrt(N) = 2n only,
        # so there is nothing to measure at an odd side.
        with pytest.raises(UnsupportedMeshError, match="even column count"):
            schedule_metrics(get_algorithm(name), 5)


class TestFirings:
    def test_firings_partial_cycle(self):
        m = schedule_metrics(get_algorithm("row_major_row_first"), 4)
        assert firings_for_steps(m, 0) == 0
        assert firings_for_steps(m, 1) == 8
        assert firings_for_steps(m, 5) == 27 + 8
        assert firings_for_steps(m, 8) == 54

    def test_negative_rejected(self):
        m = schedule_metrics(get_algorithm("snake_1"), 4)
        with pytest.raises(DimensionError):
            firings_for_steps(m, -1)

    def test_matches_mesh_machine_accounting(self, rng):
        """Static firing counts equal the dynamic comparator counts."""
        side = 6
        grid = random_permutation_grid(side, rng=rng)
        for name in ("snake_2", "row_major_row_first"):
            machine = MeshMachine(get_algorithm(name), grid)
            machine.run(13)
            m = schedule_metrics(get_algorithm(name), side)
            assert machine.stats.total_comparisons() == firings_for_steps(m, 13)


class TestWorkRatio:
    def test_bubble_sorts_do_far_more_work_than_nlogn(self):
        """Theta(N) steps x Theta(N) comparators/step >> N log N."""
        side = 16
        n_cells = side * side
        m = schedule_metrics(get_algorithm("snake_1"), side)
        assert m.work_ratio(n_cells) > 10  # quadratic vs N log N

    def test_shearsort_work_smaller(self):
        side = 16
        m_shear = schedule_metrics(build_shearsort(side=side), side)
        m_snake = schedule_metrics(get_algorithm("snake_1"), side)
        from repro.schedules import shearsort_step_count

        shear_work = firings_for_steps(m_shear, shearsort_step_count(side))
        snake_work = firings_for_steps(m_snake, side * side)
        assert shear_work < snake_work


def test_mean_comparators_per_step():
    m = schedule_metrics(get_algorithm("row_major_row_first"), 4)
    assert m.mean_comparators_per_step == 27 / 4


def test_lowered_dead_wrap_pairs_still_count_as_wrap_wires():
    """A partly dead ``WrapOp`` becomes ``PairOp``s; its live wires are
    still wrap wires."""
    schedule = get_algorithm("row_major_row_first")
    faulty = with_dead_pairs(schedule, 4, 4, [((0, 3), (1, 0))])
    assert schedule_metrics(schedule, 4).wrap_wires_used == 3
    assert schedule_metrics(faulty, 4).wrap_wires_used == 2
    assert schedule_metrics(faulty, 4).wires_used == 26
