"""Step events are the driver's: who gets them, and what they carry.

A run steps one at a time only for an observer that consumes steps (its
class overrides ``on_step`` or ``on_cycle``); every other observer gets
``RunStart``/``RunEnd`` around the fused loop an unobserved run takes.
For a step-consuming observer the driver counts each step's swaps from
the snapshots it takes, so the ``(t, swaps, grid)`` stream is the same on
every backend.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.backends import available_backends, compiled_schedule, run_sort, run_steps
from repro.backends.driver import consumes_steps, iter_run
from repro.backends.vectorized import LaneRun
from repro.core.algorithms import get_algorithm
from repro.core.faults import TransientFaults
from repro.experiments import sample
from repro.mesh.machine import mesh_sort
from repro.obs import (
    CompositeObserver,
    JsonlTraceSink,
    MetricsObserver,
    Observer,
    ProgressPrinter,
    RecordingObserver,
)
from repro.randomness import random_permutation_grid, random_zero_one_grid
from repro.verify.metamorphic import InvariantObserver
from tests.backends.numpy_lanes import NUMPY_PARAM

# ``vectorized`` steps in C where the library builds; the test-local
# backend always steps on the NumPy engine.
LANE_BACKENDS = ["vectorized", NUMPY_PARAM]
FAMILIES = ["snake_1", "row_major_row_first", "snake_3"]


class RunEndCatcher(Observer):
    """Reads run ends only, so it keeps a run on the fused loop."""

    def __init__(self):
        self.run_ends = []

    def on_run_end(self, event):
        self.run_ends.append(event)


class CycleOnly(Observer):
    def on_cycle(self, event):
        pass


class DuckObserver:
    """Has the hooks but is no Observer: its hooks cannot be told apart."""

    def on_run_start(self, event):
        pass

    def on_step(self, event):
        pass

    def on_cycle(self, event):
        pass

    def on_run_end(self, event):
        pass


def _non_consuming():
    return {
        "metrics": lambda: MetricsObserver(),
        "progress": lambda: ProgressPrinter(io.StringIO()),
        "composite": lambda: CompositeObserver(
            [MetricsObserver(), ProgressPrinter(io.StringIO())]
        ),
    }


# ---------------------------------------------------------------------------
# Which observers consume steps.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", list(_non_consuming().values()), ids=list(_non_consuming()))
def test_observers_that_read_no_step_do_not_consume_steps(make):
    assert not consumes_steps(make())


def test_the_base_observer_consumes_no_steps():
    assert not consumes_steps(Observer())
    assert not consumes_steps(RunEndCatcher())
    assert not consumes_steps(CompositeObserver([]))


@pytest.mark.parametrize("make", [
    RecordingObserver,
    CycleOnly,
    InvariantObserver,
    DuckObserver,
    lambda: CompositeObserver([MetricsObserver(), RecordingObserver()]),
    lambda: CompositeObserver([CompositeObserver([RunEndCatcher(), CycleOnly()])]),
], ids=["recording", "cycle-only", "invariants", "duck", "composite", "nested"])
def test_step_consuming_observers(make):
    assert consumes_steps(make())


def test_a_trace_sink_consumes_steps(tmp_path):
    with JsonlTraceSink(tmp_path / "events.jsonl") as sink:
        assert consumes_steps(sink)


# ---------------------------------------------------------------------------
# (a) Observers that read no step stay on the fused loop.
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch) -> dict[str, int]:
    calls = {"apply_step": 0, "materialize": 0}
    for name in calls:
        original = getattr(LaneRun, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(LaneRun, name, counting)
    return calls


@pytest.mark.parametrize("backend", LANE_BACKENDS)
@pytest.mark.parametrize("kind", list(_non_consuming()))
@pytest.mark.parametrize("max_steps", [None, 32], ids=["completed", "capped"])
def test_run_sort_keeps_the_fused_loop(backend, kind, max_steps, monkeypatch):
    schedule = get_algorithm("snake_1")
    grids = random_permutation_grid(6, batch=12, rng=4)
    calls = _count_calls(monkeypatch)
    plain = run_sort(backend, schedule, grids, max_steps=max_steps)
    assert plain.completed.all() == (max_steps is None)
    unobserved = dict(calls)
    # The one materialize of an unobserved run is its final grid.
    assert unobserved == {"apply_step": 0, "materialize": 1}

    catcher = RunEndCatcher()
    observer = CompositeObserver([_non_consuming()[kind](), catcher])
    calls.update(apply_step=0, materialize=0)
    observed = run_sort(backend, schedule, grids, max_steps=max_steps, observer=observer)
    assert calls == unobserved
    for field in ("steps", "completed", "final"):
        np.testing.assert_array_equal(getattr(observed, field), getattr(plain, field))
    assert (observed.max_steps, observed.backend) == (plain.max_steps, plain.backend)

    # The RunEnd equals the one a stepped run reports.
    rec = RecordingObserver()
    run_sort(backend, schedule, grids, max_steps=max_steps, observer=rec)
    (fused,), (stepped,) = catcher.run_ends, rec.run_ends
    np.testing.assert_array_equal(fused.steps, stepped.steps)
    np.testing.assert_array_equal(fused.completed, stepped.completed)
    np.testing.assert_array_equal(fused.steps, np.where(plain.completed, plain.steps, -1))


@pytest.mark.parametrize("backend", LANE_BACKENDS)
def test_fixed_step_runs_emit_no_steps_for_non_consuming_observers(backend, monkeypatch):
    schedule = get_algorithm("snake_1")
    grids = random_permutation_grid(6, batch=3, rng=2)
    calls = _count_calls(monkeypatch)
    catcher = RunEndCatcher()
    final = run_steps(backend, schedule, grids, 9, observer=catcher)
    assert calls == {"apply_step": 9, "materialize": 1}
    assert catcher.run_ends[0].steps == 9
    np.testing.assert_array_equal(final, run_steps(backend, schedule, grids, 9))

    calls.update(apply_step=0, materialize=0)
    yielded = list(iter_run(backend, schedule, grids, 5, observer=catcher))
    assert calls == {"apply_step": 5, "materialize": 5}  # the yielded grids only
    assert [t for t, _ in yielded] == [1, 2, 3, 4, 5]
    assert len(catcher.run_ends) == 2


# ---------------------------------------------------------------------------
# (b) A step-consuming observer sees one stream on every backend.
# ---------------------------------------------------------------------------


def _backends():
    return [*available_backends(), TransientFaults(0.0, rng=0)]


def _stream(backend, schedule, grids):
    rec = RecordingObserver()
    run_sort(backend, schedule, grids, observer=rec)
    return rec


def _expected_swaps(schedule, grids, steps):
    """Comparators that find their pair out of order, step by step: an
    oracle that never diffs two grids."""
    lo, hi, off = compiled_schedule(schedule, 6, 6).program
    previous = grids.reshape(-1, 36)
    out = []
    for event in steps:
        k = (event.t - 1) % (len(off) - 1)
        pairs = slice(off[k], off[k + 1])
        out.append(int(np.sum(previous[:, lo[pairs]] > previous[:, hi[pairs]])))
        previous = event.grid.reshape(-1, 36)
    return out


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("inputs", ["permutations", "zero_one"])
def test_every_backend_sees_the_same_step_stream(name, inputs):
    schedule = get_algorithm(name)
    if inputs == "permutations":
        grids = random_permutation_grid(6, batch=3, rng=11)
    else:
        grids = random_zero_one_grid(6, batch=3, rng=11)
    streams = {
        getattr(backend, "name", backend): _stream(backend, schedule, grids)
        for backend in _backends()
    }
    first = next(iter(streams.values()))
    assert first.steps and sum(event.swaps for event in first.steps) > 0
    assert [event.swaps for event in first.steps] == _expected_swaps(
        schedule, grids, first.steps
    )
    for backend, rec in streams.items():
        assert [(e.t, e.swaps) for e in rec.steps] == [
            (e.t, e.swaps) for e in first.steps
        ], backend
        for ours, theirs in zip(rec.steps, first.steps):
            np.testing.assert_array_equal(ours.grid, theirs.grid)
        assert [(e.cycle, e.t) for e in rec.cycles] == [
            (e.cycle, e.t) for e in first.cycles
        ], backend


def test_step_swaps_add_up_to_the_mesh_wire_swaps():
    schedule = get_algorithm("row_major_row_first")
    grid = random_permutation_grid(6, rng=5)
    rec = RecordingObserver()
    _, machine = mesh_sort(schedule, grid, max_steps=500, observer=rec)
    assert sum(event.swaps for event in rec.steps) == machine.stats.total_swaps()
    assert all(not hasattr(event, "comparisons") for event in rec.steps)


# ---------------------------------------------------------------------------
# (c) repro_steps_total from RunStart/RunEnd.
# ---------------------------------------------------------------------------


def _steps_total(run) -> float:
    obs = MetricsObserver()
    run(obs)
    return obs.registry["repro_steps_total"].value


@pytest.mark.parametrize("backend", LANE_BACKENDS)
def test_steps_total_of_driver_runs(backend):
    schedule = get_algorithm("snake_1")
    grids = random_permutation_grid(6, batch=8, rng=5)
    # The values the per-step tally gave: steps executed by each run.
    assert _steps_total(lambda o: run_sort(backend, schedule, grids, observer=o)) == 37
    assert _steps_total(lambda o: run_sort(backend, schedule, grids[0], observer=o)) == 32
    assert _steps_total(
        lambda o: run_sort(backend, schedule, grids, max_steps=10, observer=o)
    ) == 10
    assert _steps_total(lambda o: run_steps(backend, schedule, grids, 7, observer=o)) == 7


def test_steps_total_of_single_worker_campaigns():
    assert _steps_total(
        lambda o: sample("snake_1", side=6, trials=24, seed=1, shard_size=8, observer=o)
    ) == 121
    assert _steps_total(
        lambda o: sample(
            "row_major_row_first", side=6, trials=20, seed=3, shard_size=8,
            input_kind="zero_one", observer=o,
        )
    ) == 101


@pytest.mark.parametrize("max_steps", [None, 12])
def test_steps_total_counts_the_steps_a_stepped_run_executes(max_steps):
    schedule = get_algorithm("snake_2")
    grids = random_zero_one_grid(6, batch=5, rng=8)
    rec, metrics = RecordingObserver(), MetricsObserver()
    run_sort("reference", schedule, grids, max_steps=max_steps,
             observer=CompositeObserver([rec, metrics]))
    assert metrics.registry["repro_steps_total"].value == len(rec.steps)
