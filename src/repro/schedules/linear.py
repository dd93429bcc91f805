"""The 1-D odd-even transposition sort as a linear-topology family.

The paper's Section 1 builds the 2-D algorithms out of the classic 1-D
odd-even transposition sort.  Expressed in the comparator IR it is a
two-step cycle of row transpositions executed on a ``1 × N`` mesh:

* step 1 — the *odd* step: compare-exchange pairs (1,2), (3,4), ...
  (1-based), i.e. ``LineOp("row", offset=0)``;
* step 2 — the *even* step: pairs (2,3), (4,5), ... — ``offset=1``.

This matches :func:`repro.linear.odd_even.transposition_step` exactly
(odd ``t`` → offset 0); ``tests/schedules/test_shims.py`` checks the
family step by step against it and, run to completion, against a plain
NumPy loop over it.
"""

from __future__ import annotations

from repro.core.schedule import FORWARD, LineOp, Schedule, Step
from repro.schedules.registry import ScheduleFamily

__all__ = ["build_odd_even", "LINEAR_FAMILIES"]


def build_odd_even() -> Schedule:
    """The odd-even transposition cycle on a linear array."""
    return Schedule(
        name="odd_even",
        steps=(
            Step(LineOp("row", 0, FORWARD, "all")),
            Step(LineOp("row", 1, FORWARD, "all")),
        ),
        order="row_major",
        metadata={"family": "odd_even", "topology": "linear"},
    )


LINEAR_FAMILIES: tuple[ScheduleFamily, ...] = (
    ScheduleFamily(
        name="odd_even",
        builder=build_odd_even,
        topology="linear",
        description="1-D odd-even transposition sort (runs as a 1 x N mesh)",
        # 1 x N arrays stay exhaustively checkable out to N = 16 cells.
        certified_sides=(2, 3, 4, 8, 16),
    ),
)
