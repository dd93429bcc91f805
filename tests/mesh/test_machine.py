"""Tests for the processor-level mesh machine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_sort, step_cap
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError, MissingWireError, StepLimitExceeded
from repro.mesh.machine import MeshMachine, mesh_sort
from repro.mesh.topology import MeshTopology
from repro.randomness import random_permutation_grid
from repro.schedules import build_odd_even, smallest_column_adversary


class TestConstruction:
    def test_rejects_batched_grid(self, rng):
        with pytest.raises(DimensionError):
            MeshMachine(get_algorithm("snake_1"), random_permutation_grid(4, batch=2, rng=rng))

    @pytest.mark.parametrize(
        ("grid_shape", "topology_shape"),
        [((4, 4), (6, 6)), ((4, 4), (1, 16)), ((3, 4), (4, 3)), ((1, 8), (8, 1))],
    )
    def test_topology_shape_mismatch(self, grid_shape, topology_shape):
        grid = np.arange(grid_shape[0] * grid_shape[1]).reshape(grid_shape)
        with pytest.raises(DimensionError, match="topology shape"):
            MeshMachine(
                get_algorithm("snake_1"), grid, topology=MeshTopology(*topology_shape)
            )

    @pytest.mark.parametrize("shape", [(4, 4), (3, 6), (5, 2)])
    def test_wrap_schedule_needs_wrap_wires(self, shape, rng):
        grid = rng.permutation(shape[0] * shape[1]).reshape(shape)
        with pytest.raises(MissingWireError):
            MeshMachine(
                get_algorithm("row_major_row_first"),
                grid,
                topology=MeshTopology(*shape, wraparound=False),
            )

    def test_default_topology_matches_schedule(self, rng):
        grid = random_permutation_grid(4, rng=rng)
        machine = MeshMachine(get_algorithm("row_major_row_first"), grid)
        assert machine.topology.wraparound
        machine2 = MeshMachine(get_algorithm("snake_1"), grid)
        assert not machine2.topology.wraparound


class TestExecution:
    def test_sorts_and_matches_engine(self, rng):
        grid = random_permutation_grid(6, rng=rng)
        for name in ("snake_1", "row_major_col_first"):
            t, machine = mesh_sort(
                get_algorithm(name), grid, max_steps=step_cap(6)
            )
            vec = run_sort("vectorized", get_algorithm(name), grid)
            assert t == vec.steps_scalar()
            np.testing.assert_array_equal(machine.as_array(), vec.final)
            assert machine.is_sorted()

    def test_step_cap(self, rng):
        grid = random_permutation_grid(6, rng=rng)
        with pytest.raises(StepLimitExceeded):
            mesh_sort(get_algorithm("snake_3"), grid, max_steps=1)

    def test_already_sorted(self):
        grid = np.arange(16).reshape(4, 4)
        t, _ = mesh_sort(get_algorithm("row_major_row_first"), grid, max_steps=10)
        assert t == 0


class TestTrafficAccounting:
    def test_comparison_counts(self, rng):
        grid = random_permutation_grid(4, rng=rng)
        machine = MeshMachine(get_algorithm("snake_1"), grid)
        machine.step()  # step 1: odd rows 2 pairs each (2 rows) + even rows 1 pair each (2 rows)
        assert machine.stats.total_comparisons() == 2 * 2 + 1 * 2
        assert machine.stats.total_swaps() <= machine.stats.total_comparisons()

    def test_wrap_wires_carry_traffic(self):
        adversary = smallest_column_adversary(6)
        t, machine = mesh_sort(
            get_algorithm("row_major_row_first"), adversary, max_steps=step_cap(6)
        )
        wrap_traffic = sum(
            count
            for (a, b), count in machine.stats.comparisons.items()
            if abs(a[1] - b[1]) > 1
        )
        assert wrap_traffic > 0

    def test_busiest_links(self, rng):
        grid = random_permutation_grid(4, rng=rng)
        t, machine = mesh_sort(get_algorithm("snake_2"), grid, max_steps=1000)
        busiest = machine.stats.busiest_links(3)
        assert len(busiest) <= 3
        assert all(count >= 1 for _, count in busiest)

    def test_linear_array_uses_only_horizontal_wires(self, rng):
        grid = rng.permutation(9).reshape(1, 9)
        schedule = build_odd_even()
        t, machine = mesh_sort(schedule, grid, max_steps=step_cap(1, 9))
        assert t == run_sort("vectorized", schedule, grid).steps_scalar()
        wires = set(machine.stats.comparisons)
        assert wires and all(a[0] == b[0] == 0 and b[1] == a[1] + 1 for a, b in wires)
        # Every wire of the array fires: N - 1 of them.
        assert len(wires) == machine.topology.num_links() == 8
        assert machine.stats.total_swaps() <= machine.stats.total_comparisons()

    def test_rectangular_row_major_uses_its_wrap_wires(self):
        grid = np.arange(18)[::-1].reshape(3, 6)
        t, machine = mesh_sort(
            get_algorithm("row_major_row_first"), grid, max_steps=step_cap(3, 6)
        )
        assert machine.topology.num_wrap_links() == 2
        assert t == run_sort("vectorized", get_algorithm("row_major_row_first"), grid).steps_scalar()
        assert {((0, 5), (1, 0)), ((1, 5), (2, 0))} <= set(machine.stats.comparisons)
