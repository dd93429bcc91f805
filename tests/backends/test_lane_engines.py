"""The ``vectorized`` backend's C lane engine against its NumPy lane engine.

Steps, completed flags, final grids and their dtype must match bit for bit
on every family and mesh shape, every element width, step-cap hits and
step-by-step snapshots, through the driver and on the same lanes.  The
NumPy engine runs through a test-local backend that hands
:class:`~repro.backends.vectorized.LaneRun` no kernel.  Where the shared C
library cannot be built (no compiler), the C-only tests skip and the
fallback tests check that ``vectorized`` steps on the NumPy engine.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro import _clib
from repro.backends import (
    available_backends,
    compiled_schedule,
    get_backend,
    iter_run,
    run_sort,
    run_steps,
    step_cap,
)
from repro.backends import vectorized
from repro.core.faults import with_dead_pairs
from repro.core.orders import target_grid
from repro.core.schedule import comparator_pairs
from repro.errors import (
    BackendUnavailableError,
    DimensionError,
    ReproError,
    StepLimitExceeded,
)
from repro.obs.prof import SpanProfiler, use_profiler
from repro.schedules import available_families, get_family, resolve
from repro.verify.differential import differential_run
from tests.backends.numpy_lanes import NUMPY


def _c_engine() -> bool:
    try:
        _clib.load_library()
    except BackendUnavailableError:
        return False
    return True


C_ENGINE = _c_engine()
needs_c = pytest.mark.skipif(
    not C_ENGINE, reason="C lane engine unavailable: no working C compiler"
)


def _assert_same(schedule, grids, **kwargs):
    """``run_sort`` on the C and NumPy engines agree bit for bit."""
    expected = run_sort(NUMPY, schedule, grids, **kwargs)
    outcome = run_sort("vectorized", schedule, grids, **kwargs)
    assert outcome.backend == "vectorized"
    assert outcome.steps.dtype == expected.steps.dtype
    np.testing.assert_array_equal(outcome.steps, expected.steps)
    np.testing.assert_array_equal(outcome.completed, expected.completed)
    assert outcome.final.dtype == expected.final.dtype == np.asarray(grids).dtype
    assert outcome.final.shape == expected.final.shape
    np.testing.assert_array_equal(outcome.final, expected.final)
    return outcome


def _permutations(shape, batch, rng):
    rows, cols = shape
    return np.stack([rng.permutation(rows * cols).reshape(shape) for _ in range(batch)])


def _family_cases():
    cases = []
    for name in available_families():
        family = get_family(name)
        if family.topology == "linear":
            shapes = [(1, 12), (1, 7)]
        else:
            shapes = [(6, 6), (4, 6), (1, 8)]
            if not family.requires_even_side:
                shapes += [(5, 5), (3, 5)]
        for shape in shapes:
            spec = "random_network[seed=3]" if name == "random_network" else name
            cases.append(pytest.param(spec, shape, id=f"{name}-{shape[0]}x{shape[1]}"))
    return cases


@needs_c
class TestAgreement:
    @pytest.mark.parametrize("spec, shape", _family_cases())
    def test_every_family_and_shape(self, spec, shape):
        schedule = resolve(spec, shape[1])
        grids = _permutations(shape, 24, np.random.default_rng(5))
        _assert_same(schedule, grids)

    @pytest.mark.parametrize("spec, shape", _family_cases())
    def test_differential_harness(self, spec, shape):
        grid = np.random.default_rng(9).permutation(shape[0] * shape[1]).reshape(shape)
        report = differential_run(
            resolve(spec, shape[1]), grid, backends=(NUMPY, "vectorized"), reference=NUMPY
        )
        assert report.ok, report.describe()

    @pytest.mark.parametrize("shape", [(6, 6), (4, 6)])
    def test_dead_pairs(self, shape):
        rows, cols = shape
        base = resolve("snake_1", cols)
        first_op = base.steps[0].ops[0]
        dead = comparator_pairs(first_op, rows, cols)[:1]
        schedule = with_dead_pairs(base, rows, cols, dead)
        assert schedule.name != base.name
        _assert_same(schedule, _permutations(shape, 16, np.random.default_rng(2)))

    def test_dead_wrap_wires_never_sort(self):
        side = 6
        dead = [((h, side - 1), (h + 1, 0)) for h in range(side - 1)]
        schedule = with_dead_pairs(resolve("row_major_row_first", side), side, side, dead)
        grids = _permutations((side, side), 8, np.random.default_rng(4))
        outcome = _assert_same(schedule, grids, max_steps=400)
        assert not outcome.all_completed

    @pytest.mark.parametrize("dtype, low, high", [
        (np.int8, 0, 2),
        (np.int16, -30000, 30000),
        (np.int32, -2**31, 2**31 - 1),
        (np.int64, -2**40, 2**40),
        (np.uint8, 0, 256),
        (np.float64, None, None),
    ])
    @pytest.mark.parametrize("batch", [None, 1, 7])
    def test_element_widths(self, dtype, low, high, batch):
        rng = np.random.default_rng(11)
        size = (6, 6) if batch is None else (batch, 6, 6)
        if low is None:
            grids = rng.standard_normal(size)
        else:
            grids = rng.integers(low, high, size=size, dtype=dtype)
        _assert_same(resolve("snake_2", 6), grids)

    def test_bool_grids(self):
        grids = np.random.default_rng(1).integers(0, 2, size=(9, 5, 5)).astype(bool)
        _assert_same(resolve("shearsort", 5), grids)

    def test_lane_dtype_is_the_narrowest_that_fits(self):
        lane_dtype = vectorized.lane_dtype
        assert lane_dtype(np.array([[0, 1]], dtype=bool)) == np.int8
        assert lane_dtype(np.array([[-128, 127]])) == np.int8
        assert lane_dtype(np.array([[-129, 5]])) == np.int16
        assert lane_dtype(np.array([[0, 40000]], dtype=np.uint16)) == np.int32
        assert lane_dtype(np.array([[0, 2**31]])) is None
        assert lane_dtype(np.array([[0.5, 1.0]])) is None
        assert lane_dtype(np.zeros((0, 2, 2), dtype=np.int64)) is None

    def test_already_sorted_inputs_take_zero_steps(self):
        schedule = resolve("snake_3", 5)
        sorted_grid = target_grid(np.arange(25), 5, schedule.order)
        grids = np.stack([sorted_grid, _permutations((5, 5), 1, np.random.default_rng(0))[0]])
        outcome = _assert_same(schedule, grids)
        assert outcome.steps[0] == 0 and outcome.steps[1] > 0

    def test_step_cap_hits(self):
        schedule = resolve("snake_1", 8)
        grids = _permutations((8, 8), 12, np.random.default_rng(3))
        outcome = _assert_same(schedule, grids, max_steps=10)
        assert (outcome.steps == -1).any()
        for backend in (NUMPY, "vectorized"):
            with pytest.raises(StepLimitExceeded):
                run_sort(backend, schedule, grids, max_steps=10, raise_on_cap=True)

    def test_run_steps_and_iter_run_snapshots(self):
        schedule = resolve("row_major_col_first", 6)
        grids = _permutations((6, 6), 5, np.random.default_rng(8)).astype(np.int16)
        np.testing.assert_array_equal(
            run_steps("vectorized", schedule, grids, 9, start_t=3),
            run_steps(NUMPY, schedule, grids, 9, start_t=3),
        )
        ours = list(iter_run("vectorized", schedule, grids, 12))
        theirs = list(iter_run(NUMPY, schedule, grids, 12))
        for (t, snap), (u, ref) in zip(ours, theirs):
            assert t == u and snap.dtype == ref.dtype
            np.testing.assert_array_equal(snap, ref)
        # Snapshots are independent of the run.
        assert not np.array_equal(ours[0][1], ours[-1][1])

    def test_observed_run_emits_the_numpy_engine_events(self):
        """An observed run steps on the C engine itself, and its event
        stream is the one the NumPy engine emits."""
        from repro.obs.events import RecordingObserver

        schedule = resolve("snake_1", 6)
        grids = _permutations((6, 6), 4, np.random.default_rng(6))
        recs = {}
        for backend in (NUMPY, get_backend("vectorized")):
            recs[backend.name] = RecordingObserver()
            outcome = run_sort(backend, schedule, grids, observer=recs[backend.name])
            assert outcome.backend == backend.name
        ours, theirs = recs["vectorized"], recs[NUMPY.name]
        # Each run names its own backend; every other fact is the same.
        assert replace(ours.run_starts[0], executor="") == replace(
            theirs.run_starts[0], executor=""
        )
        assert [e.t for e in ours.steps] == [e.t for e in theirs.steps]
        assert [e.swaps for e in ours.steps] == [e.swaps for e in theirs.steps]
        for a, b in zip(ours.steps, theirs.steps):
            np.testing.assert_array_equal(a.grid, b.grid)
        assert [(e.cycle, e.t) for e in ours.cycles] == [(e.cycle, e.t) for e in theirs.cycles]
        for a, b in zip(ours.cycles, theirs.cycles):
            np.testing.assert_array_equal(a.grid, b.grid)
        np.testing.assert_array_equal(ours.run_ends[0].steps, theirs.run_ends[0].steps)

    def test_per_step_path_matches_the_numpy_engine(self):
        """The C run's own per-step path (each step's grids, stepped
        completion) agrees with the NumPy run and with the fused loop."""
        schedule = resolve("snake_2", 6)
        grids = _permutations((6, 6), 5, np.random.default_rng(8))
        ours = get_backend("vectorized").prepare(schedule, grids)
        theirs = NUMPY.prepare(schedule, grids)
        assert ours._kernel is not None and theirs._kernel is None
        for t in range(1, 9):
            ours.apply_step(t)
            theirs.apply_step(t)
            np.testing.assert_array_equal(ours.materialize(), theirs.materialize())
        stepped = get_backend("vectorized").prepare(schedule, grids)
        fused = get_backend("vectorized").prepare(schedule, grids)
        steps, done = stepped.sort_to_completion(200, stepped.apply_step)
        np.testing.assert_array_equal(steps, fused.sort_to_completion(200)[0])
        assert done.all()

    def test_counters_reach_the_kernel_span(self):
        schedule = resolve("snake_1", 8)
        grids = _permutations((8, 8), 16, np.random.default_rng(1))
        prof = SpanProfiler()
        with use_profiler(prof):
            outcome = run_sort("vectorized", schedule, grids)
        kernel = prof.roots[0].child("kernel")
        meta = kernel.meta
        assert set(vectorized.COUNTERS) <= set(meta)
        # Every live lane's witness is checked before the first step and
        # after each step; a lane retires after its last one.
        assert meta["native.witness_checks"] == int(np.sum(outcome.steps + 1))
        assert 0 < meta["native.full_checks"] <= meta["native.witness_checks"]
        assert meta["native.comparisons"] > 0
        assert meta["native.kernel_ns"] > 0 and meta["native.completion_ns"] > 0


def _engine_cases():
    """``(schedule, grids, max_steps)`` builders for the engine parity test."""

    def sorted_at_t0():
        schedule = resolve("snake_2", 5)
        grids = target_grid(_permutations((5, 5), 6, np.random.default_rng(1)), 5,
                            schedule.order)
        return schedule, grids, None

    def one_capped():
        schedule = resolve("snake_1", 6)
        grids = _permutations((6, 6), 12, np.random.default_rng(2))
        steps = run_sort(NUMPY, schedule, grids).steps
        return schedule, grids, int(steps.max()) - 1

    def single():
        return resolve("snake_3", 6), _permutations((6, 6), 1, np.random.default_rng(3)), None

    def empty():
        return resolve("snake_1", 4), np.zeros((0, 4, 4), dtype=np.int16), None

    def rectangle(rows, cols):
        def build():
            schedule = resolve("snake_1", cols)
            return schedule, _permutations((rows, cols), 9, np.random.default_rng(4)), None
        return build

    def network():
        schedule = resolve("random_network[seed=3]", 8)
        return schedule, _permutations((1, 8), 9, np.random.default_rng(5)), None

    def dead_pairs():
        base = resolve("snake_1", 6)
        dead = comparator_pairs(base.steps[1].ops[0], 6, 6)[:2]
        schedule = with_dead_pairs(base, 6, 6, dead)
        return schedule, _permutations((6, 6), 9, np.random.default_rng(6)), None

    return [
        pytest.param(sorted_at_t0, id="sorted-at-t0"),
        pytest.param(one_capped, id="one-capped"),
        pytest.param(single, id="B=1"),
        pytest.param(empty, id="empty-batch"),
        pytest.param(rectangle(4, 6), id="rect-4x6"),
        pytest.param(rectangle(3, 5), id="rect-3x5"),
        pytest.param(network, id="random_network"),
        pytest.param(dead_pairs, id="with_dead_pairs"),
    ]


@needs_c
@pytest.mark.parametrize("build", _engine_cases())
def test_c_and_numpy_engines_agree_on_the_same_lanes(build):
    """The C engine and the NumPy engine, started on the same lanes, end
    with the same step counts, live count and grids, fused or stepped."""
    schedule, grids, cap = build()
    max_steps = step_cap(*grids.shape[-2:]) if cap is None else cap
    runs = {
        engine: [backend.prepare(schedule, grids) for _ in range(2)]
        for engine, backend in (("c", get_backend("vectorized")), ("numpy", NUMPY))
    }
    lanes = runs["c"][0]._lanes
    for fused, _ in runs.values():
        assert fused._lanes.dtype == lanes.dtype
        np.testing.assert_array_equal(fused._lanes, lanes)
    c_engine, numpy_engine = runs["c"][0], runs["numpy"][0]
    assert (c_engine._kernel is None) == (grids.size == 0)
    assert numpy_engine._kernel is None
    outcomes = {}
    for engine, (fused, stepped) in runs.items():
        steps, done = fused.sort_to_completion(max_steps)
        again, done_again = stepped.sort_to_completion(max_steps, stepped.apply_step)
        np.testing.assert_array_equal(again, steps)
        np.testing.assert_array_equal(done_again, done)
        np.testing.assert_array_equal(stepped.materialize(), fused.materialize())
        outcomes[engine] = (steps, done, fused.materialize(), int(fused._state[0]))
    (steps, done, final, live), expected = outcomes["c"], outcomes["numpy"]
    np.testing.assert_array_equal(steps, expected[0])
    np.testing.assert_array_equal(done, expected[1])
    assert final.dtype == expected[2].dtype == grids.dtype
    np.testing.assert_array_equal(final, expected[2])
    assert live == expected[3] == int(np.sum(~done))
    if cap is not None:
        assert 0 < live < done.size


ELEMENTS = st.sampled_from(["bool", "zero_one", "int16", "int32", "negative", "float"])


@needs_c
@given(
    family=st.sampled_from(available_families()),
    rows=st.integers(1, 5),
    cols=st.integers(2, 7),
    batch=st.integers(1, 4),
    elements=ELEMENTS,
    seed=st.integers(0, 2**16),
    capped=st.booleans(),
)
def test_c_engine_matches_numpy_engine(family, rows, cols, batch, elements, seed, capped):
    spec = "random_network[seed=1]" if family == "random_network" else family
    if get_family(family).topology == "linear":
        rows = 1
    schedule = resolve(spec, cols)
    try:
        compiled_schedule(schedule, rows, cols)
    except ReproError:  # the family does not fit this mesh
        assume(False)
    rng = np.random.default_rng(seed)
    size = (batch, rows, cols)
    n = rows * cols
    grids = {
        "bool": lambda: rng.integers(0, 2, size=size).astype(bool),
        "zero_one": lambda: rng.integers(0, 2, size=size, dtype=np.int8),
        "int16": lambda: np.stack([rng.permutation(n) for _ in range(batch)])
        .reshape(size).astype(np.int16),
        "int32": lambda: rng.integers(-2**31, 2**31 - 1, size=size, dtype=np.int32),
        "negative": lambda: rng.integers(-5, 5, size=size),
        "float": lambda: rng.standard_normal(size),
    }[elements]()
    _assert_same(schedule, grids, max_steps=3 if capped else None)


# ---------------------------------------------------------------------------
# No backend, and neither lane engine, writes into the caller's array.
# ---------------------------------------------------------------------------

BACKENDS_AND_NUMPY = [*available_backends(), pytest.param(NUMPY, id=NUMPY.name)]

_WIDTHS = {
    "int8": lambda rng, size: rng.integers(0, 2, size=size, dtype=np.int8),
    "int16": lambda rng, size: rng.integers(-300, 300, size=size, dtype=np.int16),
    "int32": lambda rng, size: rng.integers(-2**20, 2**20, size=size, dtype=np.int32),
    "int64": lambda rng, size: rng.integers(-2**40, 2**40, size=size),
    "bool": lambda rng, size: rng.integers(0, 2, size=size).astype(bool),
}


@pytest.mark.parametrize("backend", BACKENDS_AND_NUMPY)
@pytest.mark.parametrize("width", _WIDTHS)
@pytest.mark.parametrize("batch", [None, 1, 5])
@pytest.mark.parametrize("entry", ["run_sort", "run_steps"])
def test_input_is_never_modified(backend, width, batch, entry):
    """A batch of one in the lane dtype is already lane-major after a
    transpose; the backend must still copy it, as every other input."""
    rng = np.random.default_rng(17)
    grid = _WIDTHS[width](rng, (6, 6) if batch is None else (batch, 6, 6))
    before = grid.copy()
    schedule = resolve("snake_1", 6)
    if entry == "run_sort":
        run_sort(backend, schedule, grid)
    else:
        run_steps(backend, schedule, grid, 5)
    np.testing.assert_array_equal(grid, before)


@pytest.mark.parametrize("backend", BACKENDS_AND_NUMPY)
@pytest.mark.parametrize("entry", ["run_steps", "iter_run"])
def test_step_times_below_one_raise(backend, entry):
    """Step times are 1-based; the C lane loop would otherwise read before
    its program's offsets."""
    grid = np.arange(16).reshape(4, 4)[::-1].copy()
    schedule = resolve("snake_1", 4)
    with pytest.raises(DimensionError, match="1-based"):
        if entry == "run_steps":
            run_steps(backend, schedule, grid, 2, start_t=0)
        else:
            next(iter_run(backend, schedule, grid, 2, start_t=0))


@pytest.mark.parametrize("backend", [get_backend("vectorized"), NUMPY], ids=["c", "numpy"])
def test_lane_run_rejects_step_zero(backend):
    run = backend.prepare(resolve("snake_1", 4), np.zeros((2, 4, 4), np.int8))
    with pytest.raises(DimensionError, match="1-based"):
        run.apply_step(0)


@needs_c
def test_handed_out_grids_are_fresh_c_ordered_buffers():
    """Observers hash step grids; a transposed view would cost them a copy
    and, for one grid in the lane dtype, would alias the lanes."""
    grid = np.arange(36, dtype=np.int8).reshape(1, 6, 6)[:, ::-1].copy()
    run = get_backend("vectorized").prepare(resolve("snake_1", 6), grid)
    assert run._kernel is not None
    run.apply_step(1)
    first = run.materialize()
    assert first.flags.c_contiguous and first.dtype == np.int8
    kept = first.copy()
    run.apply_step(2)
    np.testing.assert_array_equal(first, kept)


# ---------------------------------------------------------------------------
# Availability: without the library, ``vectorized`` steps on NumPy.
# ---------------------------------------------------------------------------

@pytest.fixture
def no_compiler(monkeypatch):
    """A process whose library build has not been decided, with ``CC``
    pointing at a missing compiler."""
    monkeypatch.setenv("CC", "/nonexistent/cc")
    monkeypatch.setattr(_clib, "_library", None)


def _kernel_of_a_run():
    """The C entry point of a fresh ``vectorized`` run of int8 lanes."""
    grids = _permutations((4, 4), 3, np.random.default_rng(0)).astype(np.int8)
    return get_backend("vectorized").prepare(resolve("snake_1", 4), grids)._kernel


def test_missing_compiler_falls_back_to_the_numpy_engine(no_compiler):
    assert _kernel_of_a_run() is None
    with pytest.raises(BackendUnavailableError, match="/nonexistent/cc"):
        _clib.load_library()
    schedule = resolve("snake_1", 6)
    grids = _permutations((6, 6), 8, np.random.default_rng(3))
    outcome = run_sort("vectorized", schedule, grids)
    np.testing.assert_array_equal(outcome.steps, run_sort(NUMPY, schedule, grids).steps)


def test_default_is_vectorized_on_the_c_engine_where_it_builds():
    assert get_backend(None) is get_backend("vectorized")
    assert (_kernel_of_a_run() is not None) == C_ENGINE


@needs_c
@pytest.mark.parametrize("broken", ["compile", "cache"])
def test_failed_build_is_unavailable_with_the_reason(no_compiler, monkeypatch, tmp_path, broken):
    if broken == "compile":
        # The compiler runs, but the kernel does not compile.
        monkeypatch.setenv("CC", "cc -include /nonexistent/header.h")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        reason = "failed to compile"
    else:
        # A cache directory that cannot be created (a file in its path).
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("CC", "cc")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "sub"))
        reason = "cannot build or load"
    with pytest.raises(BackendUnavailableError, match=reason):
        _clib.load_library()
    assert _kernel_of_a_run() is None
    assert not list(tmp_path.glob("repro/native/*")), "no partial build is left"


@needs_c
def test_unknown_home_is_unavailable_not_a_crash(no_compiler, monkeypatch):
    """Without ``$HOME`` or a passwd entry ``Path.home()`` raises
    RuntimeError; the lane runs must still step, on NumPy."""
    monkeypatch.setenv("CC", "cc")
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)

    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(_clib.Path, "home", staticmethod(no_home))
    with pytest.raises(BackendUnavailableError, match="home directory"):
        _clib.load_library()
    assert _kernel_of_a_run() is None


@needs_c
def test_build_is_keyed_by_machine(monkeypatch, tmp_path):
    """A cache shared across architectures keeps one library per machine."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    for machine in ("arch-a", "arch-b"):
        monkeypatch.setattr(_clib, "_library", None)
        monkeypatch.setattr(_clib.platform, "machine", lambda m=machine: m)
        _clib.load_library()
    assert len(list((tmp_path / "repro" / "native").iterdir())) == 2


@needs_c
def test_build_is_cached_under_a_complete_name(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_clib, "_library", None)
    _clib.load_library()
    built = list((tmp_path / "repro" / "native").iterdir())
    assert len(built) == 1 and built[0].name.startswith("clib-")
    assert built[0].suffix == ".so"
    # A second process-level load reuses the library without compiling.
    stamp = built[0].stat().st_mtime_ns
    monkeypatch.setattr(_clib, "_library", None)
    _clib.load_library()
    assert [p.stat().st_mtime_ns for p in (tmp_path / "repro" / "native").iterdir()] == [stamp]


@needs_c
def test_lane_runs_and_certifier_share_one_build(monkeypatch, tmp_path):
    from repro.analysis.semantics import certify_sortedness

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_clib, "_library", None)
    kernel = _kernel_of_a_run()
    assert certify_sortedness(resolve("snake_1", 3), 3, 3, use_cache=False).certified
    assert kernel is _clib.load_library().repro_lanes
    assert len(list((tmp_path / "repro" / "native").iterdir())) == 1
