"""The bit-sliced 0-1 certifier against a plain int8 interpreter, and its
two step engines against each other.

The oracle below runs each 0-1 input as one int8 row: compare-exchange is
``np.minimum``/``np.maximum``, sortedness is a gather along the target
order, and the dynamics are fingerprinted at cycle boundaries.  The
certifier packs 64 inputs per ``uint64`` lane instead; both must agree on
the verdict's step bound and witness, the number of inputs checked, which
inputs were ever sorted, and how many interpreter steps were run.

The certifier steps its planes in C (``repro_planes``) where the shared
library builds and in NumPy otherwise.  The two engines must give equal
batch outcomes and byte-identical certificates; the C side of those tests
skips where no compiler works.

The driver hashes no state of a monotone program, and fingerprints every
cycle boundary of any other; a copy of the driver that fingerprints every
boundary of every program is its oracle.  A pinned digest of a corpus of
certificates holds whichever engine runs to the same certificates.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.semantics import (
    certify_sortedness,
    semantics_cache_clear,
    semantics_cache_info,
)
from repro.analysis.schedule_check import check_schedule
from repro.analysis.semantics import checker
from repro.core.faults import with_dead_pairs
from repro.core.schedule import (
    PairOp,
    Schedule,
    Step,
    comparator_pairs,
    lower,
    resolve_step_cap,
)
from repro.errors import AnalysisError
from repro.schedules import (
    available_families,
    build_row_major_no_wrap,
    build_schedule,
    get_family,
    mesh_shape,
    resolve,
)
from repro.verify.mutations import all_mutants


def oracle_run(schedule: Schedule, rows: int, cols: int, inputs: np.ndarray, budget: int):
    """``(all_sorted_at, ever_sorted, periodic, steps)`` of an int8 batch."""
    order = np.arange(rows * cols).reshape(rows, cols)
    if schedule.order == "snake":
        order[1::2] = order[1::2, ::-1]
    order = order.reshape(-1)
    programs = []
    for step in schedule.steps:
        pairs = [p for op in step.ops for p in comparator_pairs(op, rows, cols)]
        programs.append((
            np.asarray([lr * cols + lc for (lr, lc), _ in pairs], dtype=np.intp),
            np.asarray([hr * cols + hc for _, (hr, hc) in pairs], dtype=np.intp),
        ))
    state = inputs.astype(np.int8)

    def sorted_mask() -> np.ndarray:
        seq = state[:, order]
        return np.all(seq[:, 1:] >= seq[:, :-1], axis=1)

    ever = sorted_mask()
    if ever.all():
        return 0, ever, False, 0
    seen = {state.tobytes()}
    t = 0
    while t < budget:
        for low, high in programs:
            if t >= budget:
                return None, ever, False, t
            t += 1
            a, b = state[:, low], state[:, high]
            state[:, low], state[:, high] = np.minimum(a, b), np.maximum(a, b)
            mask = sorted_mask()
            ever |= mask
            if mask.all():
                return t, ever, False, t
        if state.tobytes() in seen:
            return None, ever, True, t
        seen.add(state.tobytes())
    return None, ever, False, t


def all_inputs(cells: int) -> np.ndarray:
    """Every 0-1 input; row ``c`` holds bit ``j`` of ``c`` in cell ``j``."""
    codes = np.arange(1 << cells)[:, None]
    return ((codes >> np.arange(cells)) & 1).astype(np.int8)


def oracle_certificate(schedule: Schedule, rows: int, cols: int, inputs: np.ndarray, shrink: bool):
    """``(step_bound, witness, ever_sorted, steps)`` as the certifier defines them."""
    budget = resolve_step_cap(schedule, rows, cols)
    at, ever, periodic, steps = oracle_run(schedule, rows, cols, inputs, budget)
    witness = None
    if at is None and periodic and not ever.all():
        witness = min(inputs[~ever].tolist(), key=lambda row: (sum(row), row))
        while shrink:
            shrink = False
            for index in [i for i, v in enumerate(witness) if v == 1]:
                candidate = witness.copy()
                candidate[index] = 0
                _, c_ever, c_periodic, c_steps = oracle_run(
                    schedule, rows, cols, np.asarray([candidate]), budget)
                steps += c_steps
                if c_periodic and not c_ever[0]:
                    witness, shrink = candidate, True
    return at, witness, ever, steps


def assert_engines_agree(schedule: Schedule, rows: int, cols: int, mode: str) -> None:
    cells = rows * cols
    exhaustive = mode == "exhaustive"
    if exhaustive:
        inputs = all_inputs(cells)
    else:
        inputs = checker._stratified_inputs(cells, 8, 16, 0)
    semantics_cache_clear()
    cert = certify_sortedness(schedule, rows, cols, mode=mode, use_cache=False)
    steps = semantics_cache_info().interpreter_steps
    bound, witness, ever, oracle_steps = oracle_certificate(
        schedule, rows, cols, inputs, shrink=not exhaustive)

    assert cert.inputs_checked == inputs.shape[0]
    assert cert.step_bound == bound
    flat = None if cert.witness is None else [v for row in cert.witness for v in row]
    assert flat == witness
    assert steps == oracle_steps

    perm = checker._order_permutation(schedule.order, rows, cols)
    planes = (
        checker._exhaustive_planes(cells, perm) if exhaustive
        else checker._pack(inputs, perm)
    )
    outcome = checker._run_batch(
        checker._step_program(lower(schedule, rows, cols), perm),
        planes, inputs.shape[0], resolve_step_cap(schedule, rows, cols),
    )
    np.testing.assert_array_equal(outcome.ever_sorted, ever)


FAMILY_SIDES = [
    (name, side)
    for name in available_families()
    for side in get_family(name).certified_sides
]


@pytest.mark.parametrize("name,side", FAMILY_SIDES)
def test_every_declared_certificate_matches_the_oracle(name, side):
    schedule = build_schedule(name, side, seed=0)
    rows, cols = mesh_shape(schedule, side)
    assert_engines_agree(schedule, rows, cols, "exhaustive")


@pytest.mark.parametrize("seed", range(8))
def test_random_networks_match_the_oracle(seed):
    schedule = build_schedule("random_network", 12, seed=seed)
    assert_engines_agree(schedule, 1, 12, "exhaustive")


@pytest.mark.parametrize("side", [2, 4])
def test_no_wrap_refutations_match_the_oracle(side):
    assert_engines_agree(build_row_major_no_wrap(), side, side, "exhaustive")


def test_inputs_sorted_only_transiently_match_the_oracle():
    # The reversed comparator unsorts 0001, which is sorted only at step
    # 0: its ever-sorted flag must survive, and it is no witness.
    reversed_tail = Schedule(
        name="reversed_tail",
        steps=(Step(PairOp((0, 0), (0, 1))), Step(PairOp((0, 3), (0, 2)))),
        order="row_major",
        metadata={"topology": "linear"},
    )
    assert_engines_agree(reversed_tail, 1, 4, "exhaustive")
    assert certify_sortedness(reversed_tail, 1, 4).witness == ((0, 0, 1, 0),)


def test_a_budget_cut_mid_cycle_proves_no_periodicity():
    # Two idle steps, then the comparator that sorts "10" at step 3.  Cut
    # at step 2, the state equals the start state, but the cycle has not
    # come round, so nothing has provably repeated.
    program = (np.asarray([0]), np.asarray([1]), np.asarray([0, 0, 0, 1]))
    planes = checker._pack(np.asarray([[1, 0]], dtype=np.int8), np.arange(2))
    outcome = checker._run_batch(program, planes, 1, budget=2)
    assert (outcome.periodic, outcome.steps_run) == (False, 2)
    assert not outcome.ever_sorted[0]


@pytest.mark.parametrize(
    "schedule,rows,cols",
    [
        (build_schedule("random_network", 12, seed=5), 1, 12),
        (build_row_major_no_wrap(), 6, 6),  # refuted, then shrunk
    ],
    ids=["random_network-1x12", "no_wrap-6x6"],
)
def test_sampled_batches_with_pad_lanes_match_the_oracle(schedule, rows, cols):
    sample = checker._stratified_inputs(rows * cols, 8, 16, 0)
    assert sample.shape[0] % 64 != 0  # the last word carries pad lanes
    assert_engines_agree(schedule, rows, cols, "sampled")


def test_packed_lanes_hold_the_inputs_then_all_zero_pads():
    inputs = checker._stratified_inputs(10, 8, 16, 0)
    perm = np.arange(10)[::-1]
    planes = checker._pack(inputs, perm)
    assert planes.shape == (10, -(-inputs.shape[0] // 64))
    lanes = np.unpackbits(planes.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    np.testing.assert_array_equal(lanes[:, : inputs.shape[0]], inputs[:, perm].T)
    assert not lanes[:, inputs.shape[0]:].any()


def test_exhaustive_planes_decode_to_every_input():
    for cells in (1, 3, 6, 7, 10):
        perm = np.arange(cells)
        packed = checker._pack(all_inputs(cells), perm)
        np.testing.assert_array_equal(checker._exhaustive_planes(cells, perm), packed)


class TestPickMinimal:
    def test_fewest_ones_then_lexicographically_least(self):
        candidates = np.asarray(
            [[1, 1, 0], [0, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
        assert checker._pick_minimal(candidates).tolist() == [0, 0, 1]

    def test_order_holds_past_64_cells(self):
        cells = 100
        rng = np.random.default_rng(0)
        one_hot = np.eye(cells, dtype=np.int8)[rng.permutation(cells)]
        two_ones = np.zeros((1, cells), dtype=np.int8)
        two_ones[0, -2:] = 1
        picked = checker._pick_minimal(np.vstack([two_ones, one_hot]))
        assert np.flatnonzero(picked).tolist() == [cells - 1]

    def test_ties_broken_beyond_bit_64(self):
        rows = np.zeros((3, 80), dtype=np.int8)
        rows[:, 0] = 1
        rows[0, 70] = rows[1, 79] = rows[2, 65] = 1
        assert np.flatnonzero(checker._pick_minimal(rows)).tolist() == [0, 79]


# ---------------------------------------------------------------------------
# The C step engine against the NumPy one.
# ---------------------------------------------------------------------------

C_ENGINE = checker._step_engine() is checker._CEngine
needs_c = pytest.mark.skipif(
    not C_ENGINE, reason="the C step engine is unavailable: no working C compiler"
)
ENGINES = {"c": checker._CEngine, "numpy": checker._numpy_engine}


def run_on(engine, monkeypatch, program, planes, inputs, budget):
    """``_run_batch`` on a copy of ``planes`` with the driver pinned to one
    engine; returns the outcome and the final planes."""
    monkeypatch.setattr(checker, "_step_engine", lambda: ENGINES[engine])
    planes = planes.copy()
    return checker._run_batch(program, planes, inputs, budget), planes


def assert_outcomes_equal(monkeypatch, program, planes, inputs, budget):
    (c, c_planes), (numpy, numpy_planes) = (
        run_on(engine, monkeypatch, program, planes, inputs, budget) for engine in ENGINES
    )
    assert (c.all_sorted_at, c.periodic, c.steps_run) == (
        numpy.all_sorted_at, numpy.periodic, numpy.steps_run)
    np.testing.assert_array_equal(c.ever_sorted, numpy.ever_sorted)
    np.testing.assert_array_equal(c_planes, numpy_planes)
    return c


def batch(schedule, rows, cols, mode):
    """The program, planes and input count the certifier would run."""
    perm = checker._order_permutation(schedule.order, rows, cols)
    program = checker._step_program(lower(schedule, rows, cols), perm)
    if mode == "exhaustive":
        inputs = 1 << (rows * cols)
        return program, checker._exhaustive_planes(rows * cols, perm), inputs
    sample = checker._stratified_inputs(rows * cols, 8, 16, 0)
    return program, checker._pack(sample, perm), sample.shape[0]


def certificate_on(engine, monkeypatch, schedule, rows, cols, mode):
    monkeypatch.setattr(checker, "_step_engine", lambda: ENGINES[engine])
    semantics_cache_clear()
    cert = certify_sortedness(schedule, rows, cols, mode=mode, use_cache=False)
    return cert.to_json(), semantics_cache_info().interpreter_steps


def assert_engines_certify_alike(monkeypatch, schedule, rows, cols, mode):
    program, planes, inputs = batch(schedule, rows, cols, mode)
    assert_outcomes_equal(
        monkeypatch, program, planes, inputs, resolve_step_cap(schedule, rows, cols))
    c, numpy = (
        certificate_on(engine, monkeypatch, schedule, rows, cols, mode) for engine in ENGINES
    )
    assert c == numpy
    return c[0]


def dead_wrap_wires(side):
    base = build_schedule("row_major_row_first", side)
    dead = [((h, side - 1), (h + 1, 0)) for h in range(side - 1)]
    return with_dead_pairs(base, side, side, dead)


def dead_first_pair(side):
    base = build_schedule("snake_1", side)
    return with_dead_pairs(base, side, side, comparator_pairs(base.steps[0].ops[0], side, side)[:1])


REFUTED = [
    ("no_wrap-2", build_row_major_no_wrap(), 2),
    ("no_wrap-4", build_row_major_no_wrap(), 4),
    ("dead_wrap_wires-4", dead_wrap_wires(4), 4),
    ("dead_first_pair-4", dead_first_pair(4), 4),
]
SAMPLED = [
    ("snake_1-5", build_schedule("snake_1", 5), 5),
    ("snake_3-5", build_schedule("snake_3", 5), 5),
    ("shearsort-6", build_schedule("shearsort", 6), 6),
    ("col_first-6", build_schedule("row_major_col_first", 6), 6),
    # refuted, then shrunk: the odd side is outside the paper's
    # sqrt(N) = 2n, so the even-column requirement is lifted for it
    ("no_wrap-5", replace(build_row_major_no_wrap(), requires_even_side=False), 5),
    ("dead_wrap_wires-6", dead_wrap_wires(6), 6),  # refuted, then shrunk
]


@needs_c
class TestStepEngines:
    @pytest.mark.parametrize("name,side", FAMILY_SIDES)
    def test_every_declared_certificate(self, monkeypatch, name, side):
        schedule = build_schedule(name, side, seed=0)
        rows, cols = mesh_shape(schedule, side)
        cert = assert_engines_certify_alike(monkeypatch, schedule, rows, cols, "exhaustive")
        assert cert["verdict"] == "CERTIFIED"

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cells", [12, 16])
    def test_random_networks(self, monkeypatch, cells, seed):
        schedule = build_schedule("random_network", cells, seed=seed)
        assert_engines_certify_alike(monkeypatch, schedule, 1, cells, "exhaustive")

    @pytest.mark.parametrize(
        "schedule,side", [case[1:] for case in REFUTED], ids=[case[0] for case in REFUTED]
    )
    def test_refuted_mutants(self, monkeypatch, schedule, side):
        cert = assert_engines_certify_alike(monkeypatch, schedule, side, side, "exhaustive")
        assert cert["verdict"] == "REFUTED"
        assert cert["witness"] is not None

    @pytest.mark.parametrize(
        "schedule,side", [case[1:] for case in SAMPLED], ids=[case[0] for case in SAMPLED]
    )
    def test_sampled_batches_with_pad_lanes(self, monkeypatch, schedule, side):
        sample = checker._stratified_inputs(side * side, 8, 16, 0)
        assert sample.shape[0] % 64 != 0  # the last word carries pad lanes
        cert = assert_engines_certify_alike(monkeypatch, schedule, side, side, "sampled")
        if cert["verdict"] == "REFUTED":
            assert cert["witness_ones"] < sample.shape[1]

    def test_greedy_witness_shrinking(self, monkeypatch):
        schedule = build_row_major_no_wrap()
        witness = np.ones(36, dtype=np.int8)
        witness[:3] = 0
        perm = checker._order_permutation(schedule.order, 6, 6)
        program = checker._step_program(lower(schedule, 6, 6), perm)
        budget = resolve_step_cap(schedule, 6, 6)
        shrunk = []
        for engine in ENGINES:
            monkeypatch.setattr(checker, "_step_engine", lambda engine=engine: ENGINES[engine])
            semantics_cache_clear()
            shrunk.append((
                checker._minimize_witness(witness, program, perm, budget).tolist(),
                semantics_cache_info().interpreter_steps,
            ))
        assert shrunk[0] == shrunk[1]
        assert sum(shrunk[0][0]) < witness.sum()

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 6, 8, 13])
    def test_budget_cuts(self, monkeypatch, budget):
        # snake_1 has a 4-step cycle and sorts every 4x4 0-1 input at step
        # 27: budgets 4 and 8 end on a cycle boundary, the others mid-cycle.
        schedule = build_schedule("snake_1", 4)
        assert len(schedule.steps) == 4
        program, planes, inputs = batch(schedule, 4, 4, "exhaustive")
        outcome = assert_outcomes_equal(monkeypatch, program, planes, inputs, budget)
        assert outcome.steps_run == budget
        assert outcome.all_sorted_at is None and not outcome.periodic

    def test_budget_cut_mid_cycle_of_a_periodic_schedule(self, monkeypatch):
        # No-wrap 4x4 proves periodicity at a cycle boundary; cut one step
        # short of that boundary, neither engine may claim it.
        schedule = build_row_major_no_wrap()
        program, planes, inputs = batch(schedule, 4, 4, "exhaustive")
        full = assert_outcomes_equal(monkeypatch, program, planes, inputs, 10_000)
        assert full.periodic
        cut = assert_outcomes_equal(monkeypatch, program, planes, inputs, full.steps_run - 1)
        assert not cut.periodic and cut.steps_run == full.steps_run - 1

    def test_empty_steps_and_an_empty_cycle(self, monkeypatch):
        sample = np.asarray([[1, 0], [0, 1]], dtype=np.int8)
        planes = checker._pack(sample, np.arange(2))
        idle_then_sort = (np.asarray([0]), np.asarray([1]), np.asarray([0, 0, 0, 1]))
        outcome = assert_outcomes_equal(monkeypatch, idle_then_sort, planes, 2, 100)
        assert outcome.all_sorted_at == 3
        no_steps = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(1, np.int64))
        outcome = assert_outcomes_equal(monkeypatch, no_steps, planes, 2, 100)
        assert outcome.periodic and outcome.steps_run == 0


# ---------------------------------------------------------------------------
# The recurrence check against a driver that fingerprints every boundary.
# ---------------------------------------------------------------------------


def hash_every_boundary(program, planes, inputs, budget):
    """The driver with one recurrence check for every program: a blake2b
    fingerprint of the planes at the start and at every whole-cycle
    boundary."""
    cycle = len(program[2]) - 1
    never = checker._unsorted_lanes(planes)
    steps = checker._step_engine()(program, planes, never)
    all_sorted_at = None if never.any() else 0
    periodic = False
    seen = {hashlib.blake2b(planes).digest()}
    t = 0
    while all_sorted_at is None and not periodic and t < budget:
        ran = steps(min(cycle, budget - t))
        t += abs(ran)
        if ran < 0:
            all_sorted_at = t
        elif ran == cycle:
            key = hashlib.blake2b(planes).digest()
            periodic = key in seen
            seen.add(key)
    ever = np.unpackbits(never.astype("<u8").view(np.uint8), bitorder="little")
    return checker._BatchOutcome(all_sorted_at, ever[:inputs] == 0, periodic, t)


def monotone(program):
    return bool(np.all(program[0] < program[1]))


def hashes_and_outcome(driver, monkeypatch, program, planes, inputs, budget):
    """``driver`` on a copy of ``planes``: its outcome, the final planes and
    the number of blake2b fingerprints it took."""
    original = hashlib.blake2b
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    planes = planes.copy()
    with monkeypatch.context() as patch:
        patch.setattr(hashlib, "blake2b", counting)
        outcome = driver(program, planes, inputs, budget)
    return outcome, planes, len(calls)


def assert_driver_matches_the_oracle(monkeypatch, program, planes, inputs, budget):
    """Equal outcomes and final planes; a monotone program hashes nothing
    and any other as often as before.  Returns the drivers' hash counts."""
    (new, new_planes, new_hashes), (old, old_planes, old_hashes) = (
        hashes_and_outcome(driver, monkeypatch, program, planes, inputs, budget)
        for driver in (checker._run_batch, hash_every_boundary)
    )
    assert (new.all_sorted_at, new.periodic, new.steps_run) == (
        old.all_sorted_at, old.periodic, old.steps_run)
    np.testing.assert_array_equal(new.ever_sorted, old.ever_sorted)
    np.testing.assert_array_equal(new_planes, old_planes)
    assert new_hashes == (0 if monotone(program) else old_hashes)
    return new_hashes, old_hashes


def step_engine_batches():
    """``(id, program, planes, inputs, budget)`` for every batch the
    :class:`TestStepEngines` cases run."""
    for name, side in FAMILY_SIDES:
        schedule = build_schedule(name, side, seed=0)
        rows, cols = mesh_shape(schedule, side)
        budget = resolve_step_cap(schedule, rows, cols)
        yield f"{name}-{side}", *batch(schedule, rows, cols, "exhaustive"), budget
    for seed in range(4):
        for cells in (12, 16):
            schedule = build_schedule("random_network", cells, seed=seed)
            budget = resolve_step_cap(schedule, 1, cells)
            yield f"random_network-{seed}-{cells}", *batch(schedule, 1, cells, "exhaustive"), budget
    for cases, mode in ((REFUTED, "exhaustive"), (SAMPLED, "sampled")):
        for label, schedule, side in cases:
            budget = resolve_step_cap(schedule, side, side)
            yield label, *batch(schedule, side, side, mode), budget
    schedule = build_row_major_no_wrap()
    witness = np.ones(36, dtype=np.int8)
    witness[:3] = 0
    perm = checker._order_permutation(schedule.order, 6, 6)
    program = checker._step_program(lower(schedule, 6, 6), perm)
    budget = resolve_step_cap(schedule, 6, 6)
    yield "no_wrap-6-witness", program, checker._pack(witness[None, :], perm), 1, budget
    two = checker._pack(np.asarray([[1, 0], [0, 1]], dtype=np.int8), np.arange(2))
    idle_then_sort = (np.asarray([0]), np.asarray([1]), np.asarray([0, 0, 0, 1]))
    yield "idle_then_sort", idle_then_sort, two, 2, 100
    no_steps = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(1, np.int64))
    yield "no_steps", no_steps, two, 2, 100


SQUARE_FAMILIES = [
    name for name in available_families() if get_family(name).topology == "square"
]


def mutant_batches(name, side):
    """``(label, program, planes, inputs, budget)`` of every mutant of
    ``name`` that lowers on the ``side x side`` mesh."""
    for label, mutant in all_mutants(build_schedule(name, side)):
        if check_schedule(mutant, side, side).structural:
            continue
        budget = resolve_step_cap(mutant, side, side)
        yield label, *batch(mutant, side, side, "exhaustive"), budget


def certify_workload_batches():
    """The batches of the e2e ``certify`` workload at its default seed:
    every family at its ``certified_sides`` and seeded random networks."""
    entries = [("random_network[seed=3]", 12), ("random_network[seed=3]", 16)]
    entries += [
        (f"random_network[seed={int(drawn)}]", 12)
        for drawn in np.random.SeedSequence(20260706).generate_state(4)
    ]
    for name, side in FAMILY_SIDES + entries:
        schedule = resolve(name, side)
        rows, cols = mesh_shape(schedule, side)
        budget = resolve_step_cap(schedule, rows, cols)
        yield f"{name}-{side}", *batch(schedule, rows, cols, "exhaustive"), budget


ENGINE_PARAMS = [pytest.param("c", marks=needs_c), "numpy"]


@pytest.fixture(params=ENGINE_PARAMS)
def engine(request, monkeypatch):
    monkeypatch.setattr(checker, "_step_engine", lambda: ENGINES[request.param])
    return request.param


class TestRecurrenceCheck:
    """``_run_batch`` hashes nothing for a monotone program, and finds
    every recurrence where fingerprinting every boundary does."""

    def test_step_engine_cases(self, engine, monkeypatch):
        for _, *case in step_engine_batches():
            assert_driver_matches_the_oracle(monkeypatch, *case)

    @pytest.mark.parametrize("budget", range(1, 14))
    @pytest.mark.parametrize(
        "schedule", [build_schedule("snake_1", 4), build_row_major_no_wrap()],
        ids=["snake_1", "no_wrap"],
    )
    def test_budget_cuts(self, engine, monkeypatch, schedule, budget):
        program, planes, inputs = batch(schedule, 4, 4, "exhaustive")
        assert_driver_matches_the_oracle(monkeypatch, program, planes, inputs, budget)

    @pytest.mark.parametrize("side", [2, 3, 4])
    @pytest.mark.parametrize("name", SQUARE_FAMILIES)
    def test_every_mutant(self, engine, monkeypatch, name, side):
        for _, *case in mutant_batches(name, side):
            assert_driver_matches_the_oracle(monkeypatch, *case)

    def test_the_certify_workload_hashes_nothing(self, engine, monkeypatch):
        entries = list(certify_workload_batches())
        assert len(entries) == 27
        for label, program, planes, inputs, budget in entries:
            assert monotone(program), label
            assert_driver_matches_the_oracle(monkeypatch, program, planes, inputs, budget)

    def test_flipped_directions_are_not_monotone(self):
        flipped = [
            (label, program)
            for name in SQUARE_FAMILIES
            for label, program, *_ in mutant_batches(name, 4)
            if label.startswith("flip-direction")
        ]
        assert len(flipped) == 40
        assert not any(monotone(program) for _, program in flipped)

    def test_a_lane_that_moves_without_sorting_is_no_recurrence(self, engine, monkeypatch):
        # 110 becomes 101 in the first cycle, unsorted both times; only
        # the second cycle, which moves nothing, proves the recurrence.
        program = (np.asarray([1]), np.asarray([2]), np.asarray([0, 1]))
        planes = checker._pack(np.asarray([[1, 1, 0]], dtype=np.int8), np.arange(3))
        new, old = assert_driver_matches_the_oracle(monkeypatch, program, planes, 1, 100)
        assert (new, old) == (0, 3)
        outcome = checker._run_batch(program, planes, 1, 100)
        assert (outcome.periodic, outcome.steps_run) == (True, 2)
        assert not outcome.ever_sorted[0]


def certificate_corpus():
    """Every family at its ``certified_sides`` (``odd_even`` at 1x8 and
    1x16 among them), random networks at 1x12 and 1x16, the refuted no-wrap
    baseline, and every mutant of the square families at sides 2-4."""
    for name, side in FAMILY_SIDES:
        schedule = build_schedule(name, side, seed=0)
        yield schedule, *mesh_shape(schedule, side)
    for seed in range(4):
        for cells in (12, 16):
            yield build_schedule("random_network", cells, seed=seed), 1, cells
    for side in (2, 4):
        yield build_row_major_no_wrap(), side, side
    for name in SQUARE_FAMILIES:
        for side in (2, 3, 4):
            for _, mutant in all_mutants(build_schedule(name, side)):
                yield mutant, side, side


def test_the_certificate_corpus_is_pinned():
    """The certificates, to the byte, and the interpreter steps spent on
    them, on whichever step engine this process runs."""
    semantics_cache_clear()
    certs = [
        certify_sortedness(schedule, rows, cols, use_cache=False).to_json()
        for schedule, rows, cols in certificate_corpus()
    ]
    steps = semantics_cache_info().interpreter_steps
    body = "\n".join(sorted(json.dumps(cert, sort_keys=True) for cert in certs))
    assert (len(certs), steps, hashlib.sha256(body.encode()).hexdigest()) == (
        394, 8509, "e06cd3f10fc61700aaf431d0c7db154af7c0debc6b8ff472ec1c4f1e8b2f6401")


@needs_c
def test_the_c_engine_refuses_buffers_it_cannot_index():
    planes = checker._pack(np.asarray([[1, 0, 1]], dtype=np.int8), np.arange(3))
    never = checker._unsorted_lanes(planes)
    program = (np.asarray([0]), np.asarray([1]), np.asarray([0, 1]))
    assert checker._CEngine(program, planes, never)(1) == -1
    bad = {
        "cell out of range": ((np.asarray([0]), np.asarray([3]), np.asarray([0, 1])), planes),
        "offsets past the program": ((np.asarray([0]), np.asarray([1]), np.asarray([0, 2])), planes),
        "strided planes": (program, np.repeat(planes, 2, axis=1)[:, ::2]),
        "wrong dtype": (program, planes.astype(np.int64)),
    }
    for prog, buffer in bad.values():
        with pytest.raises(AnalysisError, match="do not fit"):
            checker._CEngine(prog, buffer, never)
    with pytest.raises(AnalysisError, match="do not fit"):
        checker._CEngine(program, planes, never)(2)


CHILD = """
import json, sys
from repro.analysis.semantics import certify_sortedness, semantics_cache_info
from repro.analysis.schedule_check import check_schedule
from repro.analysis.semantics import checker
from repro.schedules import build_row_major_no_wrap, build_schedule

assert checker._step_engine() is checker._numpy_engine
certs = [
    certify_sortedness(build_schedule("snake_1", 4), 4, 4).to_json(),
    certify_sortedness(build_row_major_no_wrap(), 4, 4).to_json(),
]
json.dump({"certs": certs, "steps": semantics_cache_info().interpreter_steps}, sys.stdout)
"""


@needs_c
def test_without_a_compiler_certificates_are_unchanged(tmp_path):
    """A process whose ``$CC`` does not run certifies on NumPy, to the
    byte, with the same interpreter step count."""
    semantics_cache_clear()
    expected = {
        "certs": [
            certify_sortedness(build_schedule("snake_1", 4), 4, 4).to_json(),
            certify_sortedness(build_row_major_no_wrap(), 4, 4).to_json(),
        ],
        "steps": semantics_cache_info().interpreter_steps,
    }
    assert [c["verdict"] for c in expected["certs"]] == ["CERTIFIED", "REFUTED"]
    env = dict(os.environ, CC="/nonexistent/cc", XDG_CACHE_HOME=str(tmp_path))
    src = str(Path(checker.__file__).resolve().parents[3])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == expected
    assert not list(tmp_path.iterdir()), "nothing was built"


def test_the_library_loads_on_the_first_certification_not_at_import():
    code = (
        "from repro import _clib\n"
        "from repro.analysis.semantics import certify_sortedness\n"
        "from repro.schedules import build_schedule\n"
        "assert _clib._library is None\n"
        "assert certify_sortedness(build_schedule('snake_1', 3), 3, 3).certified\n"
        "assert _clib._library is not None\n"
        "print('LAZY')\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "LAZY" in result.stdout
