"""The bit-sliced 0-1 certifier against a plain int8 interpreter.

The oracle below runs each 0-1 input as one int8 row: compare-exchange is
``np.minimum``/``np.maximum``, sortedness is a gather along the target
order, and the dynamics are fingerprinted at cycle boundaries.  The
certifier packs 64 inputs per ``uint64`` lane instead; both must agree on
the verdict's step bound and witness, the number of inputs checked, which
inputs were ever sorted, and how many interpreter steps were run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.semantics import (
    certify_sortedness,
    semantics_cache_clear,
    semantics_cache_info,
    step_budget,
)
from repro.analysis.semantics import checker
from repro.core.schedule import PairOp, Schedule, Step, comparator_pairs
from repro.schedules import (
    available_families,
    build_row_major_no_wrap,
    build_schedule,
    get_family,
    mesh_shape,
)


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
    budget = step_budget(schedule, rows, cols)
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
        checker._step_programs(schedule, rows, cols, perm),
        planes, inputs.shape[0], step_budget(schedule, rows, cols),
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
    idle = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
    programs = [idle, idle, (np.asarray([0]), np.asarray([1]))]
    planes = checker._pack(np.asarray([[1, 0]], dtype=np.int8), np.arange(2))
    outcome = checker._run_batch(programs, planes, 1, budget=2)
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
