"""Tests for the fault model: dead pairs as a schedule transform, transient
failures as a driver-stepped backend."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.analysis.semantics import certify_sortedness
from repro.backends import iter_run, run_sort, run_steps, step_cap
from repro.core.algorithms import get_algorithm
from repro.core.faults import TransientFaults, with_dead_pairs
from repro.core.orders import target_grid
from repro.core.schedule import LineOp, PairOp, WrapOp
from repro.errors import DimensionError, StepLimitExceeded
from repro.randomness import random_permutation_grid, random_permutation_mesh
from repro.schedules import build_random_network, resolve, smallest_column_adversary
from repro.verify.mutations import mutate_schedule


def _wrap_wires(side: int) -> list:
    return [((h, side - 1), (h + 1, 0)) for h in range(side - 1)]


class TestHealthyPathEquivalence:
    @pytest.mark.parametrize("name", ["snake_1", "snake_3", "row_major_row_first"])
    def test_zero_rate_matches_engine(self, name, rng):
        side = 6
        grid = random_permutation_grid(side, rng=rng)
        schedule = get_algorithm(name)
        healthy = run_sort("vectorized", schedule, grid)
        faulty = run_sort(TransientFaults(0.0), schedule, grid)
        assert healthy.steps_scalar() == faulty.steps_scalar()
        np.testing.assert_array_equal(healthy.final, faulty.final)

    def test_stepwise_equivalence(self, rng):
        grids = random_permutation_grid(6, batch=3, rng=rng)
        schedule = get_algorithm("snake_2")
        healthy = iter_run("vectorized", schedule, grids, 20)
        faulty = iter_run(TransientFaults(0.0), schedule, grids, 20)
        for (t, a), (u, b) in zip(healthy, faulty):
            assert t == u
            np.testing.assert_array_equal(a, b)

    def test_no_dead_pairs_is_the_schedule(self):
        schedule = get_algorithm("snake_1")
        assert with_dead_pairs(schedule, 4, 4, []) is schedule


class TestTransientFaults:
    @pytest.mark.parametrize("rate", [0.1, 0.4])
    def test_still_sorts(self, rate, rng):
        side = 8
        grid = random_permutation_grid(side, rng=rng)
        out = run_sort(
            TransientFaults(rate, rng), get_algorithm("snake_1"), grid,
            max_steps=20 * side * side, raise_on_cap=True,
        )
        assert out.all_completed

    def test_multiset_preserved_under_faults(self, rng):
        side = 6
        grid = random_permutation_grid(side, rng=rng)
        work = run_steps(TransientFaults(0.5, rng), get_algorithm("snake_2"), grid, 39)
        assert sorted(work.ravel().tolist()) == sorted(grid.ravel().tolist())

    def test_reproducible_with_seed(self, rng):
        side = 6
        grid = random_permutation_grid(side, rng=rng)
        schedule = get_algorithm("snake_1")
        a = run_sort(TransientFaults(0.3, 11), schedule, grid, max_steps=4000)
        b = run_sort(TransientFaults(0.3, 11), schedule, grid, max_steps=4000)
        assert a.steps_scalar() == b.steps_scalar()

    def test_failures_slow_the_sort_down(self, rng):
        grids = random_permutation_grid(6, batch=16, rng=rng)
        schedule = get_algorithm("snake_1")
        healthy = run_sort("vectorized", schedule, grids)
        faulty = run_sort(TransientFaults(0.5, rng), schedule, grids, max_steps=4000)
        assert faulty.all_completed
        assert faulty.steps.mean() > healthy.steps.mean()

    def test_invalid_rate(self):
        for rate in (1.0, -0.1):
            with pytest.raises(DimensionError, match=r"\[0, 1\)"):
                TransientFaults(rate)

    def test_pair_op_schedules_run(self, rng):
        schedule = resolve("random_network[seed=3]", 4)
        grid = random_permutation_grid(4, rng=rng)
        healthy = run_sort("vectorized", schedule, grid)
        faulty = run_sort(TransientFaults(0.0), schedule, grid)
        assert healthy.steps_scalar() == faulty.steps_scalar()


class TestDeadPairsTransform:
    def test_lowering(self):
        schedule = get_algorithm("row_major_row_first")
        faulty = with_dead_pairs(
            schedule, 4, 4, [((0, 0), (0, 1))] + _wrap_wires(4)
        )
        assert faulty.name == "row_major_row_first[dead=4]"
        # Step 1 (odd row step) is partly dead: one PairOp per live pair.
        assert all(isinstance(op, PairOp) for op in faulty.steps[0])
        assert len(faulty.steps[0].ops) == 4 * 2 - 1
        # Untouched steps keep their ops; the all-dead WrapOp is dropped.
        assert faulty.steps[1] == schedule.steps[1]
        assert [type(op) for op in faulty.steps[2]] == [LineOp]
        assert not faulty.uses_wraparound

    def test_partly_dead_wrap_stays_a_wrap(self):
        faulty = with_dead_pairs(
            get_algorithm("row_major_row_first"), 4, 4, [((1, 3), (2, 0))]
        )
        assert faulty.uses_wraparound
        assert not any(isinstance(op, WrapOp) for step in faulty.steps for op in step)

    def test_empty_step_refused(self):
        schedule = get_algorithm("row_major_row_first")
        # Step 3 fires the even row pairs and the wrap wires, nothing else.
        step3 = [((r, 1), (r, 2)) for r in range(4)] + _wrap_wires(4)
        with pytest.raises(DimensionError, match="step 3"):
            with_dead_pairs(schedule, 4, 4, step3)

    def test_memoised_schedules_stay_as_built(self):
        """Registry builds are shared per process; transforms return new
        schedules and leave the shared instance, metadata included, alone."""
        network = resolve("random_network[seed=3]", 8)
        metadata = copy.deepcopy(network.metadata)
        # Every network step fires one comparator, so a dead pair empties a step.
        first = network.steps[0].ops[0]
        with pytest.raises(DimensionError, match="no comparator"):
            with_dead_pairs(network, 1, 8, [(first.low, first.high)])
        assert mutate_schedule(network, "shift-pair", 1) != network
        assert resolve("random_network[seed=3]", 8) is network
        assert network == build_random_network(side=8, seed=3)
        assert network.metadata == metadata

        schedule = resolve("row_major_row_first", 4)
        faulty = with_dead_pairs(schedule, 4, 4, [((0, 0), (0, 1))])
        assert faulty != schedule
        assert resolve("row_major_row_first", 4) is schedule
        assert schedule == get_algorithm("row_major_row_first")

    def test_structural_errors_keep_their_types(self):
        from repro.errors import UnsupportedMeshError

        with pytest.raises(UnsupportedMeshError):
            with_dead_pairs(get_algorithm("row_major_row_first"), 5, 5, [])
        with pytest.raises(UnsupportedMeshError):
            with_dead_pairs(get_algorithm("snake_1"), 1, 1, [])


class TestDeadPairsOnEveryBackend:
    def test_backends_agree(self, rng):
        """One dead wrap wire and one dead line pair: every executor runs
        the same transformed schedule step for step."""
        schedule = with_dead_pairs(
            get_algorithm("row_major_row_first"), 4, 4,
            [((0, 3), (1, 0)), ((2, 1), (3, 1))],
        )
        for _ in range(4):
            grid = random_permutation_grid(4, rng=rng)
            outs = [
                run_sort(backend, schedule, grid, max_steps=64)
                for backend in ("vectorized", "reference", "mesh")
            ]
            for out in outs[1:]:
                assert out.steps_scalar() == outs[0].steps_scalar()
                np.testing.assert_array_equal(out.final, outs[0].final)

    def test_rectangle(self, rng):
        schedule = with_dead_pairs(
            get_algorithm("snake_1"), 4, 6, [((0, 2), (0, 3)), ((1, 5), (2, 5))]
        )
        grids = random_permutation_mesh((4, 6), batch=6, rng=rng)
        vec = run_sort("vectorized", schedule, grids, max_steps=200)
        for grid, steps, final in zip(grids, vec.steps, vec.final):
            ref = run_sort("reference", schedule, grid, max_steps=200)
            assert ref.steps_scalar() == int(steps)
            np.testing.assert_array_equal(ref.final, final)

    def test_dead_wrap_wires_refuted_by_certifier(self):
        schedule = get_algorithm("row_major_row_first")
        assert certify_sortedness(schedule, 4).certified
        dead = with_dead_pairs(schedule, 4, 4, _wrap_wires(4))
        cert = certify_sortedness(dead, 4)
        assert cert.refuted
        witness = cert.witness_array
        out = run_sort("vectorized", dead, witness, max_steps=step_cap(4))
        assert not out.all_completed


class TestPermanentFaults:
    def test_dead_wrap_wires_trap_adversary(self):
        side = 6
        schedule = with_dead_pairs(
            get_algorithm("row_major_row_first"), side, side, _wrap_wires(side)
        )
        with pytest.raises(StepLimitExceeded):
            run_sort(
                "vectorized", schedule, smallest_column_adversary(side),
                max_steps=8 * side * side, raise_on_cap=True,
            )

    def test_dead_pair_never_exchanges(self):
        # kill one horizontal pair in the odd row step
        schedule = with_dead_pairs(get_algorithm("snake_1"), 4, 4, [((0, 0), (0, 1))])
        before = np.arange(16, dtype=np.int64).reshape(4, 4)[::-1, ::-1].copy()
        grid = run_steps("vectorized", schedule, before, 1)
        # cells (0,0),(0,1) untouched; the other odd-row pair did exchange
        assert grid[0, 0] == before[0, 0] and grid[0, 1] == before[0, 1]
        assert grid[0, 2] == min(before[0, 2], before[0, 3])

    def test_dead_column_pair(self):
        schedule = with_dead_pairs(get_algorithm("snake_1"), 4, 4, [((0, 0), (1, 0))])
        before = np.arange(16, dtype=np.int64).reshape(4, 4)[::-1].copy()
        grid = run_steps("vectorized", schedule, before, 1, start_t=2)  # column odd step
        assert grid[0, 0] == before[0, 0] and grid[1, 0] == before[1, 0]
        assert grid[0, 1] == min(before[0, 1], before[1, 1])

    def test_single_dead_pair_deadlocks_locally(self, rng):
        """A single permanently dead comparator typically *deadlocks* the
        row-major sort: these schedules have no redundant path for the final
        exchange at that pair, so the run stalls with the mismatches
        confined to the dead pair's neighbourhood in the embedded linear
        order (rows 1-3 here).  This is the honest fault-tolerance story —
        transient faults are survivable, permanent ones are not."""
        side = 6
        dead_row = 2
        schedule = with_dead_pairs(
            get_algorithm("row_major_row_first"), side, side,
            [((dead_row, 2), (dead_row, 3))],
        )
        deadlocks = 0
        for _ in range(5):
            grid = random_permutation_grid(side, rng=rng)
            out = run_sort("vectorized", schedule, grid, max_steps=20 * side * side)
            if out.all_completed:
                continue
            deadlocks += 1
            tgt = target_grid(grid, side, "row_major")
            mismatch_rows = {int(r) for r, _ in np.argwhere(out.final != tgt)}
            assert mismatch_rows <= {dead_row - 1, dead_row, dead_row + 1}
        assert deadlocks >= 3


class TestDeadPairValidation:
    """A dead pair must name a wire the schedule actually uses: an
    off-mesh or never-fired pair would otherwise leave the run healthy."""

    def test_off_mesh_pair_rejected(self):
        with pytest.raises(DimensionError, match=r"\(9, 9\), \(9, 10\)"):
            with_dead_pairs(
                get_algorithm("row_major_row_first"), 6, 6, [((9, 9), (9, 10))]
            )

    def test_first_unfired_pair_is_named(self):
        # (h, 5)-(h, 0) looks like a wrap wire, but the real one ends at
        # (h + 1, 0); no step of the schedule compares these cells.
        wrap = ((0, 5), (1, 0))
        with pytest.raises(DimensionError, match=r"\(\(2, 0\), \(2, 5\)\) is not a comparator"):
            with_dead_pairs(
                get_algorithm("row_major_row_first"), 6, 6,
                [wrap, ((2, 0), (2, 5)), ((3, 5), (3, 0))],
            )
