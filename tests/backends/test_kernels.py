"""One step of the NumPy lane engine equals the two-temporary formula.

The engine gathers both operands of every comparator of a step, then
stores the minima and maxima.  The reference below applies the textbook
formula comparator by comparator — ``lo = min(a, b)``, ``hi = max(a, b)``
with ``a`` the lower-index cell of a line op and the ``low`` cell of a
pair or wrap comparator, both computed before either cell is written —
and the two must agree bit for bit, including NaN propagation and the
sign of zero.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_steps
from repro.core.schedule import (
    FORWARD,
    REVERSE,
    LineOp,
    PairOp,
    Schedule,
    Step,
    WrapOp,
    comparator_pairs,
)

ROWS, COLS = 4, 6

OPS = [
    LineOp("row", 0, FORWARD),
    LineOp("row", 1, FORWARD, "odd"),
    LineOp("row", 0, REVERSE, "even"),
    LineOp("row", 1, REVERSE),
    LineOp("col", 0, FORWARD),
    LineOp("col", 1, FORWARD, "even"),
    LineOp("col", 0, REVERSE),
    LineOp("col", 1, REVERSE, "odd"),
    WrapOp(),
    PairOp((1, 2), (1, 3)),
    PairOp((2, 4), (1, 4)),
]


def _two_temporary(op, grid: np.ndarray) -> None:
    """Apply ``op`` with two temporaries per comparator."""
    reverse = isinstance(op, LineOp) and op.direction == REVERSE
    for small, large in comparator_pairs(op, ROWS, COLS):
        first, second = (large, small) if reverse else (small, large)
        a = grid[..., first[0], first[1]].copy()
        b = grid[..., second[0], second[1]].copy()
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        grid[..., small[0], small[1]] = lo
        grid[..., large[0], large[1]] = hi


def _inputs(batch: tuple[int, ...]) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(12)
    shape = (*batch, ROWS, COLS)
    floats = rng.choice(np.array([-0.0, 0.0, np.nan, -1.5, 2.0, np.inf]), size=shape)
    return {
        "int64": rng.permutation(np.prod(shape)).reshape(shape).astype(np.int64),
        "float64": floats,
        "zero_one": rng.integers(0, 2, size=shape).astype(np.int8),
    }


@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
@pytest.mark.parametrize("op", OPS, ids=repr)
def test_kernel_equals_two_temporary_formula(op, batch):
    schedule = Schedule("one-op", (Step(op),), "row_major")
    for name, grid in _inputs(batch).items():
        got = run_steps("vectorized", schedule, grid, 1)
        want = grid.copy()
        _two_temporary(op, want)
        assert got.tobytes() == want.tobytes(), name


def test_float_inputs_exercise_nan_and_signed_zero():
    grid = _inputs((5,))["float64"]
    assert np.isnan(grid).any()
    assert np.signbit(grid[grid == 0]).any() and (~np.signbit(grid[grid == 0])).any()
