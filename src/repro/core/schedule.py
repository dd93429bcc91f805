"""Intermediate representation for mesh comparator schedules.

The five algorithms of the paper (and the shearsort baseline) are *oblivious*
comparison-exchange procedures: at each step, a fixed set of disjoint cell
pairs compare their contents and place the smaller value at a fixed end of
the pair.  This module provides a tiny declarative IR for such procedures:

* :class:`LineOp` — one odd or even transposition step applied along rows or
  columns, restricted to a parity class of lines, with a direction (ordinary
  bubble stores the smaller value at the lower index; *reverse* bubble,
  Definition 1 of the paper, stores it at the higher index);
* :class:`WrapOp` — the wrap-around comparisons of the row-major algorithms:
  for each ``h``, cell ``(h, last column)`` against ``(h+1, first column)``
  with the smaller value kept in column ``last``;
* :class:`PairOp` — a single compare-exchange between two adjacent cells
  or over one wrap-around wire (the building block of generated comparator
  networks such as :mod:`repro.schedules.random_networks`, where each step
  fires one nearest-neighbour comparator drawn i.i.d. uniformly, and of the
  partly dead ops :func:`repro.core.faults.with_dead_pairs` lowers);
* :class:`Step` — a set of ops executed simultaneously (they must touch
  disjoint cells of the mesh, which :func:`lower` checks);
* :class:`Schedule` — a named sequence of steps, executed cyclically.

:func:`lower` flattens a schedule into its one comparator program on a
concrete mesh (flat cell indices plus per-step offsets), and refuses a
schedule that is not a comparator network there: a mesh too small or with
odd columns for a ``requires_even_side`` schedule, a cell outside the mesh,
a wrap wire that does not leave the last column, an op outside the IR, or a
cell touched twice in one step.  It is the one place that enumerates
comparators: :func:`repro.analysis.schedule_check.check_schedule` reports
the same problems as its structural rules SCH001–SCH003.  Every executor
reads the program: the C and NumPy lane engines of the ``vectorized``
backend (through :attr:`~repro.backends.compile.CompiledSchedule.program`),
the pure-Python oracle :mod:`repro.core.reference`, the processor-level
:mod:`repro.mesh.machine`, and also the 0-1 certifier, the cost metrics
and the dead-pair transform; the cross-backend tests hold every executor
to byte-identical semantics.

:func:`step_cap` and :func:`resolve_step_cap` give the step cap of a run,
a pure function of the schedule and the mesh, shared by the executors'
driver and the 0-1 certifier.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Iterator, Literal

import numpy as np

from repro.errors import DimensionError, ScheduleValidationError, UnsupportedMeshError

__all__ = [
    "Axis",
    "Lines",
    "LineOp",
    "WrapOp",
    "PairOp",
    "Op",
    "Step",
    "Schedule",
    "pair_count",
    "comparator_pairs",
    "lower",
    "is_wrap",
    "step_cap",
    "resolve_step_cap",
    "Cell",
    "Comparator",
    "Program",
]

Axis = Literal["row", "col"]
Lines = Literal["all", "odd", "even"]
Cell = tuple[int, int]
Comparator = tuple[Cell, Cell]
#: A comparator program ``(lo, hi, off)``, as :func:`lower` gives it.
Program = tuple[np.ndarray, np.ndarray, np.ndarray]
#: A structural problem ``(rule, message, step)`` found while lowering:
#: ``rule`` is ``"SCH001"`` (a cell touched twice in one step), ``"SCH002"``
#: (the mesh) or ``"SCH003"`` (an op outside the IR); ``step`` is 1-based,
#: ``None`` for the whole mesh.
Problem = tuple[str, str, int | None]

#: Direction constant: smaller value stored at the lower index (left / top).
FORWARD = 1
#: Direction constant: smaller value stored at the higher index (reverse bubble).
REVERSE = -1


def lines_slice(lines: Lines) -> slice:
    """The selected lines as a basic slice (so engines can take views)."""
    if lines == "all":
        return slice(None)
    if lines == "odd":
        return slice(0, None, 2)
    if lines == "even":
        return slice(1, None, 2)
    raise DimensionError(f"unknown line selector {lines!r}")


def pair_count(offset: int, side: int) -> int:
    """Number of compare-exchange pairs in a line of length ``side``.

    An odd step (``offset=0``) pairs cells (0,1), (2,3), ...; an even step
    (``offset=1``) pairs (1,2), (3,4), ...
    """
    if offset not in (0, 1):
        raise DimensionError(f"offset must be 0 or 1, got {offset}")
    return max((side - offset) // 2, 0)


@dataclass(frozen=True)
class LineOp:
    """One transposition step along all selected rows or columns.

    Parameters
    ----------
    axis:
        ``"row"`` — comparisons between horizontally adjacent cells within
        each selected row; ``"col"`` — between vertically adjacent cells
        within each selected column.
    offset:
        0 for the paper's *odd* step (pairs (1,2),(3,4),... in 1-based
        numbering), 1 for the *even* step (pairs (2,3),(4,5),...).
    direction:
        ``+1`` stores the smaller value at the lower index (ordinary bubble
        sort: left for rows, top for columns); ``-1`` is the reverse bubble
        sort of Definition 1 (smaller value at the higher index).
    lines:
        Which lines participate: ``"all"``, ``"odd"`` (paper-odd: 1-based
        1,3,5,...), or ``"even"``.
    """

    axis: Axis
    offset: int
    direction: int
    lines: Lines = "all"

    def __post_init__(self) -> None:
        if self.axis not in ("row", "col"):
            raise ScheduleValidationError(f"bad axis {self.axis!r}")
        if self.offset not in (0, 1):
            raise ScheduleValidationError(f"bad offset {self.offset!r}")
        if self.direction not in (FORWARD, REVERSE):
            raise ScheduleValidationError(f"bad direction {self.direction!r}")
        if self.lines not in ("all", "odd", "even"):
            raise ScheduleValidationError(f"bad line selector {self.lines!r}")

    def describe(self) -> str:
        kind = "odd" if self.offset == 0 else "even"
        sort = "bubble" if self.direction == FORWARD else "reverse-bubble"
        return f"{self.lines} {self.axis}s: {kind} {sort} step"


@dataclass(frozen=True)
class WrapOp:
    """Wrap-around comparisons between the last and first columns.

    For ``h = 0 .. side-2`` (0-based), compare cell ``(h, side-1)`` with
    ``(h+1, 0)``; the smaller value is placed in ``(h, side-1)``, i.e. the
    wrap-around wires continue the row-major linear order across row
    boundaries.
    """

    def describe(self) -> str:
        return "wrap-around comparisons (h, last) vs (h+1, first)"


@dataclass(frozen=True)
class PairOp:
    """One compare-exchange between two adjacent cells.

    The smaller value is stored at :attr:`low`, the larger at :attr:`high`.
    The two cells must be nearest neighbours (horizontally or vertically
    adjacent) so the op stays executable on a mesh without extra wires —
    or the two ends ``(h, c)`` and ``(h+1, 0)`` of one wrap-around wire,
    which :func:`lower` accepts only when ``c`` is the mesh's last column
    (and either pair only when both cells lie on the mesh).  Generated
    schedule families (e.g. random adjacent-comparator networks on a
    ``1 x N`` linear array) are built from these.
    """

    low: tuple[int, int]
    high: tuple[int, int]

    def __post_init__(self) -> None:
        try:
            low = tuple(operator.index(v) for v in self.low)
            high = tuple(operator.index(v) for v in self.high)
        except TypeError:
            raise ScheduleValidationError(
                f"PairOp cells must be integer (row, col) pairs, got "
                f"{self.low!r}, {self.high!r}"
            ) from None
        if len(low) != 2 or len(high) != 2:
            raise ScheduleValidationError(
                f"PairOp cells must be (row, col) pairs, got {self.low!r}, {self.high!r}"
            )
        if min(*low, *high) < 0:
            raise ScheduleValidationError(
                f"PairOp cells must be non-negative, got {low} vs {high}"
            )
        upper, lower = min(low, high), max(low, high)
        adjacent = abs(low[0] - high[0]) + abs(low[1] - high[1]) == 1
        if not adjacent and lower != (upper[0] + 1, 0):
            raise ScheduleValidationError(
                f"PairOp cells must be mesh-adjacent or the ends of a wrap "
                f"wire, got {low} vs {high}"
            )
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    def describe(self) -> str:
        return f"compare cells {self.low} vs {self.high} (smaller at {self.low})"


Op = LineOp | WrapOp | PairOp


@dataclass(frozen=True)
class Step:
    """A set of ops executed in the same time step.

    Ops within a step must touch pairwise-disjoint cells — :func:`lower`
    refuses a step that touches a cell of the concrete mesh twice.  Because
    the cell sets are disjoint, engines may apply the ops sequentially.
    """

    ops: tuple[Op, ...]

    def __init__(self, *ops: Op) -> None:
        if not ops:
            raise ScheduleValidationError("a step must contain at least one op")
        object.__setattr__(self, "ops", tuple(ops))

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def describe(self) -> str:
        return " + ".join(op.describe() for op in self.ops)


@dataclass(frozen=True)
class Schedule:
    """A named, cyclically repeated sequence of steps.

    Attributes
    ----------
    name:
        Registry name of the algorithm (e.g. ``"snake_1"``).
    steps:
        The step cycle.  Step ``t`` (1-based, matching the paper's counting)
        executes ``steps[(t - 1) % len(steps)]``.
    order:
        Target order the schedule sorts into (``"row_major"`` or ``"snake"``).
    requires_even_side:
        True for the row-major algorithms, which are only defined for
        ``sqrt(N) = 2n``.
    uses_wraparound:
        True when any step fires a wrap-around wire (extra wires needed).
    """

    name: str
    steps: tuple[Step, ...]
    order: str
    requires_even_side: bool = False
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ScheduleValidationError("schedule must contain at least one step")

    def __hash__(self) -> int:
        # Schedules key the compile and certificate caches, so the deep
        # field hash is computed once per instance.  It never travels
        # through pickle: ``str`` hashes are salted per process.
        try:
            cached: int = self.__dict__["_hash"]
            return cached
        except KeyError:
            value = hash((self.name, self.steps, self.order, self.requires_even_side))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def uses_wraparound(self) -> bool:
        return any(is_wrap(op) for step in self.steps for op in step)

    def step_at(self, t: int) -> Step:
        """The step executed at 1-based time ``t``."""
        if t < 1:
            raise DimensionError(f"step times are 1-based, got {t}")
        return self.steps[(t - 1) % len(self.steps)]

    def describe(self) -> str:
        lines = [f"schedule {self.name!r} -> {self.order} order"]
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"  cycle step {i}/{len(self.steps)}: {step.describe()}")
        return "\n".join(lines)


def is_wrap(op: Op) -> bool:
    """Whether ``op`` fires over wrap-around wires.

    True for a :class:`WrapOp` and for a :class:`PairOp` whose cells share
    neither a row nor a column.
    """
    if isinstance(op, PairOp):
        return op.low[0] != op.high[0] and op.low[1] != op.high[1]
    return isinstance(op, WrapOp)


def comparator_pairs(op: Op, rows: int, cols: int) -> list[Comparator]:
    """Every ``(low_cell, high_cell)`` comparator ``op`` fires on a
    ``rows x cols`` mesh (square callers pass ``(side, side)``).

    The *smaller* value is placed at ``low_cell``.  A row op's pairing is
    governed by the column count, a column op's by the row count.
    :func:`lower` flattens these into the comparator program; per op, the
    static schedule verifier attributes violations with it, and the fault
    models split partly dead ops and shape their failure draws.
    """
    if isinstance(op, WrapOp):
        return [((h, cols - 1), (h + 1, 0)) for h in range(rows - 1)]
    if isinstance(op, PairOp):
        return [(op.low, op.high)]
    length = cols if op.axis == "row" else rows
    pool = rows if op.axis == "row" else cols
    pairs: list[Comparator] = []
    for line in range(pool)[lines_slice(op.lines)]:
        for k in range(pair_count(op.offset, length)):
            a = op.offset + 2 * k
            b = a + 1
            if op.axis == "row":
                first, second = (line, a), (line, b)
            else:
                first, second = (a, line), (b, line)
            pairs.append((first, second) if op.direction == FORWARD else (second, first))
    return pairs


def _valid_line_op(op: LineOp) -> bool:
    """Whether a :class:`LineOp` carries valid fields (one built around
    ``__post_init__`` may not)."""
    return (
        op.axis in ("row", "col")
        and op.offset in (0, 1)
        and op.direction in (FORWARD, REVERSE)
        and op.lines in ("all", "odd", "even")
    )


def _op_problem(op: Op, number: int, rows: int, cols: int) -> tuple[str, str] | None:
    """The ``(rule, message)`` that keeps op ``number`` (1-based) of a step
    from firing on a ``rows x cols`` mesh, or ``None``."""
    if isinstance(op, LineOp):
        if not _valid_line_op(op):
            return "SCH003", f"op {number} carries invalid fields: {op!r}"
    elif isinstance(op, PairOp):
        for cell in (op.low, op.high):
            if not (0 <= cell[0] < rows and 0 <= cell[1] < cols):
                return "SCH002", (
                    f"op {number} compares cell {cell} outside the {rows}x{cols} mesh"
                )
        if is_wrap(op) and max(op.low[1], op.high[1]) != cols - 1:
            return "SCH002", (
                f"op {number} wires {op.low} to {op.high}, but the wrap wires "
                f"of the {rows}x{cols} mesh leave column {cols - 1}"
            )
    elif not isinstance(op, WrapOp):
        return "SCH003", (
            f"op {number} has unknown type {type(op).__name__}; "
            "obliviousness cannot be certified"
        )
    return None


def _lower_pass(
    schedule: Schedule, rows: int, cols: int
) -> tuple[Program, list[Problem], list[tuple[int, int]]]:
    """The comparator program of ``schedule`` on a ``rows x cols`` mesh, its
    structural problems, and the comparator range ``(start, stop)`` of each
    reverse-bubble :class:`LineOp`, in one enumeration of the comparators.

    An op with a problem of its own (SCH002, SCH003) fires nothing; ops
    that share a cell (SCH001) keep their comparators, and the first shared
    cell of an op is its only SCH001 problem.
    """
    rows, cols = int(rows), int(cols)
    lo: list[int] = []
    hi: list[int] = []
    off = [0]
    problems: list[Problem] = []
    reverse: list[tuple[int, int]] = []
    # Linear arrays (1 x N / N x 1) are first-class meshes — the paper's
    # Section 1 substrate — so only meshes with fewer than two cells on
    # their longest axis are out of bounds.
    if rows < 1 or cols < 1 or max(rows, cols) < 2:
        message = f"mesh dimensions must span at least two cells, got {rows}x{cols}"
        return _frozen(lo, hi, off), [("SCH002", message, None)], reverse
    if schedule.requires_even_side and cols % 2 != 0:
        what = f"side {cols}" if rows == cols else f"{cols} columns"
        problems.append((
            "SCH002",
            f"schedule {schedule.name!r} requires an even column count "
            f"(the paper's sqrt(N) = 2n), got {what}",
            None,
        ))
    for index, step in enumerate(schedule.steps, start=1):
        owner = [-1] * (rows * cols)  # the op that last touched each cell
        for op_index, op in enumerate(step.ops):
            problem = _op_problem(op, op_index + 1, rows, cols)
            if problem is not None:
                rule, message = problem
                problems.append((rule, message, index))
                continue
            clash = False
            first = len(lo)
            for low, high in comparator_pairs(op, rows, cols):
                a = low[0] * cols + low[1]
                b = high[0] * cols + high[1]
                lo.append(a)
                hi.append(b)
                if clash:
                    continue
                if owner[a] < 0 and owner[b] < 0 and a != b:
                    owner[a] = owner[b] = op_index
                    continue
                for cell, flat in ((low, a), (high, b)):
                    if owner[flat] < 0:
                        owner[flat] = op_index
                        continue
                    message = (
                        f"op {op_index + 1} touches cell {cell} twice"
                        if owner[flat] == op_index
                        else f"ops overlap at cell {cell} on the {rows}x{cols} mesh"
                    )
                    problems.append(("SCH001", message, index))
                    clash = True
                    break
            if isinstance(op, LineOp) and op.direction == REVERSE:
                reverse.append((first, len(lo)))
        off.append(len(lo))
    return _frozen(lo, hi, off), problems, reverse


def _frozen(lo: list[int], hi: list[int], off: list[int]) -> Program:
    program = (
        np.array(lo, dtype=np.int32),
        np.array(hi, dtype=np.int32),
        np.array(off, dtype=np.int64),
    )
    for array in program:
        array.flags.writeable = False
    return program


def _lower(schedule: Schedule, rows: int, cols: int) -> tuple[Program, list[tuple[int, int]]]:
    """:func:`lower`, with the comparator range of each reverse-bubble
    :class:`LineOp` in its program."""
    program, problems, reverse = _lower_pass(schedule, rows, cols)
    if problems:
        mesh = [message for rule, message, _ in problems if rule == "SCH002"]
        if mesh:
            raise UnsupportedMeshError(mesh[0])
        raise ScheduleValidationError(problems[0][1])
    return program, reverse


def lower(schedule: Schedule, rows: int, cols: int) -> Program:
    """The schedule as a flat comparator program on a ``rows x cols`` mesh.

    ``(lo, hi, off)``: ``lo``/``hi`` are ``int32`` flat cell indices
    (``row * cols + col``) of each comparator, the smaller value going to
    ``lo``, in :func:`comparator_pairs` order; step ``i``'s comparators are
    ``off[i]:off[i + 1]`` (``off`` is ``int64``).  The arrays are read-only,
    so cached programs can be shared.

    A schedule that is not a comparator network on this mesh is refused:
    a mesh problem (too few cells, odd columns for a
    ``requires_even_side`` schedule, a cell outside the mesh, a wrap wire
    that does not leave the last column) raises
    :class:`~repro.errors.UnsupportedMeshError`, and otherwise an op
    outside the IR or a cell touched twice in one step raises
    :class:`~repro.errors.ScheduleValidationError`, each with the message
    of the first such problem.
    """
    return _lower(schedule, rows, cols)[0]


def step_cap(rows: int, cols: int | None = None) -> int:
    """A generous step cap for runs expected to finish in Theta(N) steps.

    The paper proves worst cases of Theta(N) with small constants (the
    row-major worst case is at least ``2N - 4*sqrt(N)`` and at most
    ``O(N)``); ``8*N + 8*(rows + cols) + 64`` leaves ample slack while still
    bounding runaway runs on buggy schedules.  On a square mesh this equals
    ``8*N + 16*side + 64``.
    """
    if cols is None:
        cols = rows
    n_cells = rows * cols
    return 8 * n_cells + 8 * (rows + cols) + 64


def resolve_step_cap(schedule: Schedule, rows: int, cols: int | None = None) -> int:
    """The default step cap for one ``(schedule, mesh)`` pair.

    Generated schedule families whose sorting time is not Theta(N) — e.g.
    random adjacent-comparator networks, which fire one comparator per step —
    declare a provable bound in ``schedule.metadata["step_cap_hint"]``; the
    driver and the 0-1 certifier honour it (taking the larger of hint and
    :func:`step_cap`, so a hint can only loosen the default).  Schedules
    without a hint get the paper-calibrated :func:`step_cap`.
    """
    base = step_cap(rows, cols)
    hint = schedule.metadata.get("step_cap_hint")
    if hint is None:
        return base
    return max(base, int(hint))
