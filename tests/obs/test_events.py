"""Observer semantics across all three executors (plus diagnostics).

The contract under test: a recording observer attached to a
sort-to-completion run sees exactly ``t_f`` step events, one cycle event
per completed cycle, and a single run_start/run_end envelope — identically
on the vectorized engine, the pure-Python reference oracle, and the
processor-level mesh machine.  A raising observer must never leave an
executor in a half-stepped state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends, run_sort, run_steps, step_cap
from repro.backends.interpreter import MeshBackend
from repro.core.algorithms import get_algorithm
from repro.mesh.machine import MeshMachine, mesh_sort
from repro.obs import (
    CompositeObserver,
    Observer,
    RecordingObserver,
    get_active_observer,
    use_observer,
)
from repro.zeroone.diagnostics import run_diagnostics
from tests.backends.numpy_lanes import NUMPY_PARAM

ALGOS = ["row_major_row_first", "snake_1"]


def perm_grid(side: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(side * side).reshape(side, side)


class TestStepCounts:
    @pytest.mark.parametrize("name", ALGOS)
    def test_engine_step_events_match_steps(self, name):
        grid = perm_grid(6)
        rec = RecordingObserver()
        outcome = run_sort("vectorized", get_algorithm(name), grid, observer=rec)
        t_f = outcome.steps_scalar()
        assert rec.step_times == list(range(1, t_f + 1))
        assert len(rec.run_starts) == len(rec.run_ends) == 1
        assert rec.run_starts[0].executor == "vectorized"
        assert rec.run_starts[0].algorithm == name
        assert int(np.asarray(rec.run_ends[0].steps)) == t_f
        cycle = len(get_algorithm(name).steps)
        assert len(rec.cycles) == t_f // cycle

    @pytest.mark.parametrize("name", ALGOS)
    def test_reference_step_events_match_steps(self, name):
        grid = perm_grid(6)
        rec = RecordingObserver()
        t_f = run_sort(
            "reference", get_algorithm(name), grid,
            max_steps=step_cap(6), raise_on_cap=True, observer=rec,
        ).steps_scalar()
        assert rec.step_times == list(range(1, t_f + 1))
        assert rec.run_starts[0].executor == "reference"
        assert rec.run_ends[0].completed is True

    @pytest.mark.parametrize("name", ALGOS)
    def test_mesh_step_events_match_steps(self, name):
        grid = perm_grid(6)
        rec = RecordingObserver()
        t_f, _ = mesh_sort(
            get_algorithm(name), grid, max_steps=step_cap(6), observer=rec
        )
        assert rec.step_times == list(range(1, t_f + 1))
        assert rec.run_starts[0].executor == "mesh"

    def test_all_executors_agree_on_event_stream(self):
        grid = perm_grid(6, seed=3)
        schedule = get_algorithm("snake_1")
        recs = [RecordingObserver() for _ in range(3)]
        run_sort("vectorized", schedule, grid, observer=recs[0])
        run_sort(
            "reference", schedule, grid,
            max_steps=step_cap(6), raise_on_cap=True, observer=recs[1],
        )
        mesh_sort(schedule, grid, max_steps=step_cap(6), observer=recs[2])
        times = {tuple(rec.step_times) for rec in recs}
        assert len(times) == 1
        # Per-step swap counts agree wherever both executors report them.
        swaps = [[ev.swaps for ev in rec.steps] for rec in recs]
        assert swaps[0] == swaps[1] == swaps[2]

    def test_diagnostics_step_events_match_trace(self):
        grid = perm_grid(6, seed=5)
        rec = RecordingObserver()
        records = run_diagnostics("snake_1", grid, observer=rec)
        assert rec.step_times == list(range(1, records[-1].t + 1))
        assert rec.run_starts[0].executor == "diagnostics"
        # Cycle events mirror the CycleRecords (skipping the t=0 snapshot).
        assert len(rec.cycles) == len(records) - 1
        for ev, record in zip(rec.cycles, records[1:]):
            assert ev.t == record.t
            assert ev.info["potential"] == record.potential
            assert ev.info["inversions"] == record.inversions

    def test_fixed_steps_events(self):
        grid = perm_grid(6)
        rec = RecordingObserver()
        run_steps("vectorized", get_algorithm("snake_1"), grid, 10, observer=rec)
        assert rec.step_times == list(range(1, 11))
        assert rec.run_ends[0].steps == 10

    def test_engine_swaps_match_mesh_totals(self):
        grid = perm_grid(6, seed=11)
        schedule = get_algorithm("row_major_row_first")
        rec = RecordingObserver()
        run_sort("vectorized", schedule, grid, observer=rec)
        _, machine = mesh_sort(schedule, grid, max_steps=step_cap(6))
        assert sum(ev.swaps for ev in rec.steps) == machine.stats.total_swaps()


class _Boom(Exception):
    pass


class RaisingObserver(Observer):
    """Raises on the k-th step event."""

    def __init__(self, explode_at: int):
        self.explode_at = explode_at

    def on_step(self, event):
        if event.t == self.explode_at:
            raise _Boom(f"step {event.t}")


class TestRaisingObserver:
    def test_engine_input_grid_untouched(self):
        grid = perm_grid(6)
        original = grid.copy()
        with pytest.raises(_Boom):
            run_sort(
                "vectorized", get_algorithm("snake_1"), grid, observer=RaisingObserver(3)
            )
        np.testing.assert_array_equal(grid, original)

    def test_mesh_state_consistent_after_raise(self):
        grid = perm_grid(6)
        schedule = get_algorithm("snake_1")
        backend = MeshBackend()
        with pytest.raises(_Boom):
            run_sort(backend, schedule, grid, observer=RaisingObserver(4))
        machine = backend.last_run.machines[0]
        # The driver emits after the step's exchanges complete, so the
        # memories hold the exact permutation a clean 4-step run produces.
        clean = MeshMachine(schedule, grid)
        clean.run(4)
        np.testing.assert_array_equal(machine.as_array(), clean.as_array())
        assert machine.t == 4

    def test_mesh_values_never_lost(self):
        backend = MeshBackend()
        with pytest.raises(_Boom):
            run_sort(
                backend, get_algorithm("snake_1"), perm_grid(5),
                observer=RaisingObserver(2),
            )
        assert sorted(backend.last_run.machines[0].cells) == list(range(25))


class TestAmbientContext:
    def test_no_observer_by_default(self):
        assert get_active_observer() is None

    def test_use_observer_scopes(self):
        rec = RecordingObserver()
        with use_observer(rec):
            assert get_active_observer() is rec
            run_sort("vectorized", get_algorithm("snake_1"), perm_grid(4))
        assert get_active_observer() is None
        assert rec.steps and rec.run_ends

    def test_explicit_beats_ambient(self):
        ambient, explicit = RecordingObserver(), RecordingObserver()
        with use_observer(ambient):
            run_sort(
                "vectorized", get_algorithm("snake_1"), perm_grid(4), observer=explicit
            )
        assert not ambient.steps
        assert explicit.steps

    def test_nested_innermost_wins(self):
        outer, inner = RecordingObserver(), RecordingObserver()
        with use_observer(outer):
            with use_observer(inner):
                assert get_active_observer() is inner
            assert get_active_observer() is outer


class TestComposite:
    def test_fan_out(self):
        a, b = RecordingObserver(), RecordingObserver()
        run_sort(
            "vectorized", get_algorithm("snake_1"),
            perm_grid(4),
            observer=CompositeObserver([a, b]),
        )
        assert a.step_times == b.step_times
        assert len(a.run_starts) == len(b.run_starts) == 1


class TestRecordingObserver:
    @pytest.mark.parametrize("backend", [*available_backends(), NUMPY_PARAM])
    def test_recorded_grids_do_not_change_when_later_steps_run(self, backend):
        class Snapshotting(RecordingObserver):
            """Keeps its own copy of each grid as the event arrives."""

            def __init__(self):
                super().__init__()
                self.at_receipt = []

            def on_step(self, event):
                super().on_step(event)
                self.at_receipt.append(event.grid.copy())

        rec = Snapshotting()
        grids = np.stack([perm_grid(4, seed=s) for s in range(3)])
        run_sort(backend, get_algorithm("snake_1"), grids, observer=rec)
        assert len(rec.steps) > 1
        assert not np.array_equal(rec.steps[0].grid, rec.steps[-1].grid)
        for event, copy in zip(rec.steps, rec.at_receipt):
            np.testing.assert_array_equal(event.grid, copy)
