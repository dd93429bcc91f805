"""Static schedule verifier: prove well-formedness without executing a step.

The paper's guarantees hold for *oblivious* comparison-exchange procedures:
every step is a fixed set of disjoint comparator pairs, chosen independently
of the data.  That is a property of the :class:`~repro.core.schedule.Schedule`
IR itself, so it can be certified statically.  :func:`check_schedule`
reads every comparator a schedule would fire on a concrete
``rows x cols`` mesh and checks:

========  ==========  ==========================================================
rule      severity    meaning
========  ==========  ==========================================================
SCH001    structural  two comparators in one step touch the same cell
SCH002    structural  mesh out of bounds (fewer than two cells on the longest
                      axis, a comparator cell outside the mesh, a wrap pair
                      that does not leave the last column, or odd columns
                      for a ``requires_even_side`` schedule — the paper's
                      ``sqrt(N) = 2n`` constraint)
SCH003    structural  an op is not part of the comparator IR (or carries
                      invalid fields), so obliviousness cannot be certified
SCH004    policy      wrap-around wiring outside the row-major family (the
                      paper's table grants extra wires only to the two
                      row-major algorithms)
SCH005    policy      a row-major schedule with no wrap-around comparisons
                      (Section 1: without the extra wires the smallest column
                      can never leave column 1)
SCH006    policy      comparator direction inconsistent with the family
                      (row-major: all forward; snake: odd rows forward, even
                      rows reverse per Definition 1; columns always forward)
SCH007    policy      a parity-restricted op with no complementary-parity
                      partner on the same axis in the same step
SCH008    policy      an (axis, line-parity) class that never sees one of the
                      two transposition offsets across the cycle — a
                      single-parity transposition network cannot sort
SCH009    policy      an axis with no comparators at all on a mesh that
                      extends along it
========  ==========  ==========================================================

*Structural* violations are the problems :func:`repro.core.schedule.lower`
refuses a schedule for, found in the same single pass over its comparators
(``lower`` raises :class:`~repro.errors.UnsupportedMeshError` for SCH002 and
:class:`~repro.errors.ScheduleValidationError` otherwise), so no executor
ever runs one.  *Policy* violations mark a
schedule the paper's lemmas do not cover, but engines can still execute it —
:mod:`repro.verify` uses exactly this to split schedule mutants into
statically-detectable and semantic-only classes.

A clean report certifies comparator-network form, hence the 0-1 principle
(Section 2's reduction of average-case analysis to 0-1 matrices) applies.
This module never imports an executor; detection is entirely static.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

from repro.core.schedule import (
    FORWARD,
    REVERSE,
    LineOp,
    PairOp,
    Schedule,
    _lower_pass,
    _valid_line_op,
    is_wrap,
)

if TYPE_CHECKING:  # pragma: no cover - the certifier imports this module
    from repro.analysis.semantics.checker import SortednessCertificate

__all__ = [
    "SCHEDULE_RULES",
    "Severity",
    "ScheduleViolation",
    "ScheduleReport",
    "check_schedule",
]

Severity = Literal["structural", "policy"]

#: Rule catalog: ``rule id -> (severity, one-line summary)``.
SCHEDULE_RULES: dict[str, tuple[Severity, str]] = {
    "SCH001": ("structural", "comparators within a step must touch disjoint cells"),
    "SCH002": ("structural", "mesh dimensions violate the schedule's constraints"),
    "SCH003": ("structural", "op is not part of the oblivious comparator IR"),
    "SCH004": ("policy", "wrap-around wiring is reserved for the row-major family"),
    "SCH005": ("policy", "a row-major schedule needs wrap-around comparisons"),
    "SCH006": ("policy", "comparator direction inconsistent with the target order"),
    "SCH007": ("policy", "parity-restricted op lacks its complementary partner"),
    "SCH008": ("policy", "a line class never sees both transposition offsets"),
    "SCH009": ("policy", "an extended axis has no comparators at all"),
}


@dataclass(frozen=True)
class ScheduleViolation:
    """One diagnostic from the static verifier."""

    rule: str
    severity: Severity
    message: str
    step: int | None = None  # 1-based step in the cycle, None = cycle-level

    def describe(self) -> str:
        where = f" (step {self.step})" if self.step is not None else ""
        return f"{self.rule}[{self.severity}]{where}: {self.message}"


@dataclass
class ScheduleReport:
    """Everything :func:`check_schedule` established about one schedule."""

    name: str
    order: str
    rows: int
    cols: int
    depth: int
    comparators_per_cycle: int
    violations: list[ScheduleViolation] = field(default_factory=list)
    #: Sortedness certificate, attached by
    #: :func:`repro.analysis.semantics.certified_schedule_report`; ``None``
    #: when certification was not requested.
    semantics: "SortednessCertificate | None" = None

    @property
    def ok(self) -> bool:
        """True when no rule fired at all."""
        return not self.violations

    @property
    def structural(self) -> list[ScheduleViolation]:
        return [v for v in self.violations if v.severity == "structural"]

    @property
    def policy(self) -> list[ScheduleViolation]:
        return [v for v in self.violations if v.severity == "policy"]

    @property
    def oblivious(self) -> bool:
        """True when the schedule is a well-formed comparator network.

        Obliviousness is a *structural* property: every step is a fixed set
        of disjoint, in-bounds compare-exchange pairs.  It is what makes the
        0-1 principle (and with it the paper's Section 2 reduction)
        applicable, independently of the policy-level family rules.
        """
        return not self.structural

    def describe(self) -> str:
        head = (
            f"schedule {self.name!r} on {self.rows}x{self.cols}: "
            f"{self.depth} step(s)/cycle, {self.comparators_per_cycle} "
            f"comparator(s)/cycle, oblivious={self.oblivious}"
        )
        if self.ok:
            body = f"{head}, no violations"
        else:
            lines = [f"{head}, {len(self.violations)} violation(s)"]
            lines += [f"  {v.describe()}" for v in self.violations]
            body = "\n".join(lines)
        if self.semantics is not None:
            body += f"\n  semantics: {self.semantics.describe()}"
        return body

    def to_json(self) -> dict[str, object]:
        """JSON-serializable form for ``repro analyze --json``."""
        return {
            "name": self.name,
            "order": self.order,
            "rows": self.rows,
            "cols": self.cols,
            "depth": self.depth,
            "comparators_per_cycle": self.comparators_per_cycle,
            "oblivious": self.oblivious,
            "violations": [
                {
                    "rule": v.rule,
                    "severity": v.severity,
                    "step": v.step,
                    "message": v.message,
                }
                for v in self.violations
            ],
            "semantics": None
            if self.semantics is None
            else self.semantics.to_json(),
        }


def _check_wrap_family(
    schedule: Schedule, rows: int, out: list[ScheduleViolation]
) -> None:
    """SCH004 + SCH005: wrap wiring belongs to, and is required by, row-major."""
    for index, step in enumerate(schedule.steps, start=1):
        if any(is_wrap(op) for op in step.ops):
            if schedule.order != "row_major":
                out.append(
                    ScheduleViolation(
                        "SCH004",
                        "policy",
                        f"wrap-around comparisons in a {schedule.order!r}-order "
                        "schedule; the paper grants the extra wires only to "
                        "the row-major algorithms",
                        step=index,
                    )
                )
    # A single-row mesh has no row boundaries for values to cross, so the
    # extra wires argument is vacuous there (linear arrays sort row-major
    # by plain odd-even transposition).
    if rows > 1 and schedule.order == "row_major" and not schedule.uses_wraparound:
        out.append(
            ScheduleViolation(
                "SCH005",
                "policy",
                "row-major target order but no wrap-around comparisons in the "
                "cycle; Section 1: without the extra wires the smallest "
                "column values can never cross a row boundary",
            )
        )


def _check_directions(schedule: Schedule, out: list[ScheduleViolation]) -> None:
    """SCH006: direction/axis consistency per algorithm family."""
    for index, step in enumerate(schedule.steps, start=1):
        for op in step.ops:
            if not isinstance(op, LineOp) or not _valid_line_op(op):
                continue
            if op.axis == "col" and op.direction != FORWARD:
                out.append(
                    ScheduleViolation(
                        "SCH006",
                        "policy",
                        "reverse-bubble column step; every algorithm in the "
                        "paper sorts columns smaller-on-top",
                        step=index,
                    )
                )
            elif op.axis == "row" and schedule.order == "row_major":
                if op.direction != FORWARD:
                    out.append(
                        ScheduleViolation(
                            "SCH006",
                            "policy",
                            "reverse-bubble row step in a row-major schedule; "
                            "row-major order sorts every row ascending",
                            step=index,
                        )
                    )
            elif op.axis == "row" and schedule.order == "snake":
                if op.lines == "odd" and op.direction != FORWARD:
                    out.append(
                        ScheduleViolation(
                            "SCH006",
                            "policy",
                            "reverse-bubble step on paper-odd rows; snakelike "
                            "order sorts odd rows ascending (Definition 1)",
                            step=index,
                        )
                    )
                elif op.lines == "even" and op.direction != REVERSE:
                    out.append(
                        ScheduleViolation(
                            "SCH006",
                            "policy",
                            "ordinary bubble step on paper-even rows; snakelike "
                            "order sorts even rows descending (Definition 1)",
                            step=index,
                        )
                    )
                elif op.lines == "all":
                    out.append(
                        ScheduleViolation(
                            "SCH006",
                            "policy",
                            "uniform-direction row step across all rows in a "
                            "snake schedule; odd and even rows must sort in "
                            "opposite directions",
                            step=index,
                        )
                    )


def _check_parity_pairing(schedule: Schedule, out: list[ScheduleViolation]) -> None:
    """SCH007: an odd-lines op needs an even-lines partner in the same step."""
    complement = {"odd": "even", "even": "odd"}
    for index, step in enumerate(schedule.steps, start=1):
        line_ops = [op for op in step.ops if isinstance(op, LineOp) and _valid_line_op(op)]
        for op in line_ops:
            if op.lines == "all":
                continue
            partners = [
                other
                for other in line_ops
                if other is not op
                and other.axis == op.axis
                and other.lines in (complement[op.lines], "all")
            ]
            if not partners:
                out.append(
                    ScheduleViolation(
                        "SCH007",
                        "policy",
                        f"{op.lines} {op.axis}s step with no complementary "
                        f"{complement[op.lines]}-{op.axis}s op in the same step; "
                        "the paper's algorithms always advance both line "
                        "classes together",
                        step=index,
                    )
                )


def _check_offset_completeness(
    schedule: Schedule, rows: int, cols: int, out: list[ScheduleViolation]
) -> None:
    """SCH008 + SCH009: per-cycle transposition coverage.

    Every (axis, line-parity) class that participates at all must see both
    the odd (offset 0) and even (offset 1) transposition step somewhere in
    the cycle — odd-even transposition sort needs the alternation — and a
    mesh that extends along an axis needs comparators on that axis.  The
    even-offset requirement is waived when the line length is 2 (the even
    step is empty there by construction).
    """
    offsets: dict[tuple[str, str], set[int]] = {}
    pair_axes: set[str] = set()
    for step in schedule.steps:
        for op in step.ops:
            if is_wrap(op):
                continue  # wrap wires count as row comparators (below)
            if isinstance(op, PairOp):
                pair_axes.add("row" if op.low[0] == op.high[0] else "col")
                # Adjacent pair comparators are single-wire transposition
                # steps, so they participate in the same offset-coverage
                # accounting as LineOps: a pair-built network whose line
                # class only ever fires one offset parity cannot sort.
                d_row = op.high[0] - op.low[0]
                d_col = op.high[1] - op.low[1]
                if d_row == 0 and abs(d_col) == 1:
                    cls = "odd" if op.low[0] % 2 == 0 else "even"
                    boundary = min(op.low[1], op.high[1])
                    offsets.setdefault(("row", cls), set()).add(boundary % 2)
                elif d_col == 0 and abs(d_row) == 1:
                    cls = "odd" if op.low[1] % 2 == 0 else "even"
                    boundary = min(op.low[0], op.high[0])
                    offsets.setdefault(("col", cls), set()).add(boundary % 2)
                continue
            if not isinstance(op, LineOp) or not _valid_line_op(op):
                continue
            classes = ("odd", "even") if op.lines == "all" else (op.lines,)
            for cls in classes:
                offsets.setdefault((op.axis, cls), set()).add(op.offset)

    axes_present = {axis for axis, _ in offsets} | pair_axes
    if schedule.uses_wraparound:
        axes_present.add("row")  # wrap comparisons move values horizontally
    if rows > 1 and "col" not in axes_present:
        out.append(
            ScheduleViolation(
                "SCH009",
                "policy",
                f"no column comparators in the cycle on a {rows}-row mesh",
            )
        )
    if cols > 1 and "row" not in axes_present:
        out.append(
            ScheduleViolation(
                "SCH009",
                "policy",
                f"no row comparators in the cycle on a {cols}-column mesh",
            )
        )

    for (axis, cls), seen in sorted(offsets.items()):
        length = cols if axis == "row" else rows
        needed = {0} if length <= 2 else {0, 1}
        for offset in sorted(needed - seen):
            kind = "odd" if offset == 0 else "even"
            out.append(
                ScheduleViolation(
                    "SCH008",
                    "policy",
                    f"{cls} {axis}s never perform an {kind} transposition "
                    f"step (offset {offset}) anywhere in the cycle; a "
                    "single-parity transposition network cannot sort",
                )
            )


def check_schedule(schedule: Schedule, rows: int, cols: int | None = None) -> ScheduleReport:
    """Statically verify ``schedule`` against a concrete ``rows x cols`` mesh.

    Never executes a comparator: every check is a pure function of the
    schedule IR and the mesh shape.  See the module docstring for the rule
    catalog and docs/ANALYSIS.md for the mapping to the paper's lemmas.
    """
    rows = int(rows)
    cols = rows if cols is None else int(cols)
    (lo, _, _), problems, _ = _lower_pass(schedule, rows, cols)
    violations = [
        ScheduleViolation(rule, "structural", message, step)
        for rule, message, step in problems
    ]
    _check_wrap_family(schedule, rows, violations)
    _check_directions(schedule, violations)
    _check_parity_pairing(schedule, violations)
    _check_offset_completeness(schedule, rows, cols, violations)
    return ScheduleReport(
        name=schedule.name,
        order=schedule.order,
        rows=rows,
        cols=cols,
        depth=len(schedule.steps),
        comparators_per_cycle=len(lo),
        violations=violations,
    )
