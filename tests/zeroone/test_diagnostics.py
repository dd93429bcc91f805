"""Tests for the per-cycle diagnostics tooling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.orders import target_grid
from repro.errors import DimensionError
from repro.obs.events import RecordingObserver
from repro.randomness import random_permutation_grid
from repro.zeroone.diagnostics import (
    CycleRecord,
    inversions,
    render_report,
    run_diagnostics,
)


class TestInversions:
    def test_sorted_is_zero(self):
        grid = target_grid(np.arange(16), 4, "snake")
        assert inversions(grid, "snake") == 0
        grid_rm = np.arange(16).reshape(4, 4)
        assert inversions(grid_rm, "row_major") == 0

    def test_reversed_is_maximal(self):
        n = 16
        grid = np.arange(n)[::-1].reshape(4, 4)
        assert inversions(grid, "row_major") == n * (n - 1) // 2

    def test_single_swap(self):
        grid = np.arange(16).reshape(4, 4)
        grid[0, 0], grid[0, 1] = grid[0, 1], grid[0, 0]
        assert inversions(grid, "row_major") == 1

    def test_matches_bruteforce(self, rng):
        grid = random_permutation_grid(5, rng=rng)
        seq = grid.ravel()
        brute = sum(
            1
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
            if seq[i] > seq[j]
        )
        assert inversions(grid, "row_major") == brute

    def test_rejects_batch(self):
        with pytest.raises(DimensionError):
            inversions(np.zeros((2, 3, 3)), "snake")


class TestRunDiagnostics:
    @pytest.mark.parametrize("algorithm", ["snake_1", "snake_2", "row_major_row_first"])
    def test_trace_ends_sorted(self, algorithm, rng):
        grid = random_permutation_grid(6, rng=rng)
        records = run_diagnostics(algorithm, grid)
        assert records[0].t == 0
        assert records[-1].sorted
        assert records[-1].inversions == 0

    def test_cycle_alignment(self, rng):
        records = run_diagnostics("snake_1", random_permutation_grid(6, rng=rng))
        assert all(rec.t % 4 == 0 for rec in records)

    def test_potential_loses_at_most_one_per_cycle(self, rng):
        """Theorem 6's engine visible in the diagnostics."""
        records = run_diagnostics("snake_1", random_permutation_grid(8, rng=rng))
        for a, b in zip(records[1:], records[2:]):
            assert b.potential >= a.potential - 1

    def test_cap_leaves_unsorted_record(self, rng):
        records = run_diagnostics(
            "snake_3", random_permutation_grid(8, rng=rng), max_steps=4
        )
        assert not records[-1].sorted

    @pytest.mark.parametrize("max_steps", [1, 4, 5, 7, 8])
    def test_cap_bounds_the_executed_steps(self, max_steps, rng):
        """A cap that is not a cycle multiple still stops the run at the cap."""
        rec = RecordingObserver()
        records = run_diagnostics(
            "snake_1", random_permutation_grid(6, rng=rng),
            max_steps=max_steps, observer=rec,
        )
        (start,) = rec.run_starts
        assert start.max_steps == max_steps
        assert len(rec.steps) <= start.max_steps
        assert rec.step_times == list(range(1, max_steps + 1))
        assert records[-1].t == max_steps and not records[-1].sorted
        # Only completed cycles are announced as cycles.
        assert [ev.t for ev in rec.cycles] == list(range(4, max_steps + 1, 4))
        assert rec.run_ends[0].steps == -1

    def test_rejects_batch(self, rng):
        with pytest.raises(DimensionError):
            run_diagnostics("snake_1", random_permutation_grid(4, batch=2, rng=rng))


class TestRenderReport:
    def test_renders(self, rng):
        records = run_diagnostics("snake_1", random_permutation_grid(4, rng=rng))
        text = render_report(records)
        assert "inversions" in text
        assert str(records[-1].t) in text

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            render_report([])

    def test_record_is_frozen(self):
        rec = CycleRecord(0, 1, 2, 3, (0, 0), False)
        with pytest.raises(AttributeError):
            rec.t = 5  # type: ignore[misc]
