"""Machine-checked paper claims: one declaration per theorem or lemma.

Each :class:`~repro.experiments.registry.ExperimentSpec` lists the
:class:`Claim` objects its result table supports, and
:func:`evaluate_claims` turns a table into one :class:`ClaimResult` per
claim.  Claims read cells **by header name only**, so reordering a
table's columns never changes a verdict.  There are five kinds:

* :func:`lower_bound` — a measured value (usually a mean) is at least a
  bound (Theorems 2, 4, 7, 10, 12, Corollaries 1 and 4);
* :func:`per_trial_bound` — a bound checked on every trial: zero
  violations, margin the smallest slack (Theorem 1 / Corollary 2, 6, 9, 13);
* :func:`exact_moment` — a Monte-Carlo moment agrees with its exact value
  (Lemmas 4, 9, 11, 14 and the variances);
* :func:`tail_bound` — an empirical tail frequency stays below its bound
  (Theorems 3, 5, 8, 11, 12);
* :func:`zero_violations` — a per-row or per-group shape predicate that no
  row or group may break (lemma invariants and the extension experiments).

A verdict is HOLDS, VIOLATED or INCONCLUSIVE.  INCONCLUSIVE arises only for
a :func:`lower_bound` with a confidence-interval column whose interval
contains the bound; the result then states the trials needed to resolve
it, ``n * (ci / |value - bound|)**2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Mapping

from repro.experiments.tables import Table

__all__ = [
    "Claim",
    "ClaimResult",
    "Verdict",
    "evaluate_claims",
    "each_row",
    "exact_moment",
    "lower_bound",
    "per_trial_bound",
    "tail_bound",
    "zero_violations",
]

Row = Mapping[str, Any]
RowFilter = Callable[[Row], bool]


class Verdict(str, Enum):
    """Outcome of one claim on one table."""

    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ClaimResult:
    """One claim's verdict on one table.

    ``margin`` is the worst row's distance from the claim's boundary in
    the table's units (negative when that row breaks the bound); for
    :func:`exact_moment` it is the largest ``|MC - exact|`` and for
    :func:`zero_violations` minus the number of failing rows or groups.
    """

    label: str
    statement: str
    verdict: Verdict
    margin: float
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "statement": self.statement,
            "verdict": self.verdict.value,
            "margin": self.margin,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Claim:
    """A named paper claim and the check that decides it from table rows.

    ``check`` receives the rows selected by ``where`` as header -> cell
    mappings and returns ``(verdict, margin, detail)``.
    """

    label: str
    statement: str
    check: Callable[[list[Row]], tuple[Verdict, float, str]]
    where: RowFilter | None = None

    def evaluate(self, rows: list[Row]) -> ClaimResult:
        rows = [row for row in rows if self.where is None or self.where(row)]
        if not rows:
            verdict, margin, detail = Verdict.VIOLATED, math.nan, "no rows to check"
        else:
            verdict, margin, detail = self.check(rows)
        return ClaimResult(self.label, self.statement, verdict, float(margin), detail)


def evaluate_claims(claims: Iterable[Claim], table: Table) -> list[ClaimResult]:
    """Evaluate ``claims`` against ``table``, reading cells by header name."""
    rows = [dict(zip(table.headers, cells)) for cells in table.rows]
    return [claim.evaluate(rows) for claim in claims]


def _failing(failures: int, total: int, what: str = "rows") -> str:
    return f"{failures} of {total} {what} fail" if failures else ""


def lower_bound(
    label: str,
    *,
    value: str,
    bound: str,
    ci: str | None = None,
    verdict: str | None = None,
    where: RowFilter | None = None,
) -> Claim:
    """``value >= bound`` on every row.

    A row fails when its ``verdict`` column is false, or, for a table
    without one, when ``value`` plus its ``ci`` (95% half-width) column
    lies below the bound.  A passing row whose interval contains the bound
    is INCONCLUSIVE; the detail sizes the run that would resolve it from
    the table's ``trials`` column, or as a multiple of the current trials
    when the table has none.
    """

    def check(rows: list[Row]) -> tuple[Verdict, float, str]:
        gaps = [float(row[value]) - float(row[bound]) for row in rows]
        halves = [float(row[ci]) for row in rows] if ci else [0.0] * len(rows)
        fails = [
            not bool(row[verdict]) if verdict else gap + half < 0
            for row, gap, half in zip(rows, gaps, halves)
        ]
        if any(fails):
            return Verdict.VIOLATED, min(gaps), _failing(sum(fails), len(rows))
        unsure = [
            ((half / abs(gap)) ** 2 if gap else math.inf, row)
            for row, gap, half in zip(rows, gaps, halves)
            if abs(gap) < half
        ]
        if unsure:
            factor, row = max(unsure, key=lambda pair: pair[0])
            needed = (
                f"{math.ceil(float(row['trials']) * factor)} trials" if "trials" in row
                else f"{factor:.1f}x its trials"
            )
            return (
                Verdict.INCONCLUSIVE,
                min(gaps),
                f"bound inside the 95% CI on {len(unsure)} of {len(rows)} rows; "
                f"needs about {needed}",
            )
        return Verdict.HOLDS, min(gaps), ""

    return Claim(label, f"{value} >= {bound}", check, where)


def per_trial_bound(label: str, *, where: RowFilter | None = None) -> Claim:
    """A bound checked on every trial: zero ``violations``; margin = least ``min slack``."""

    def check(rows: list[Row]) -> tuple[Verdict, float, str]:
        failures = sum(int(row["violations"]) for row in rows)
        verdict = Verdict.VIOLATED if failures else Verdict.HOLDS
        detail = f"{failures} trial(s) below the bound" if failures else ""
        return verdict, min(float(row["min slack"]) for row in rows), detail

    return Claim(label, "violations == 0 on every trial", check, where)


def exact_moment(
    label: str, *, estimate: str, where: RowFilter | None = None
) -> Claim:
    """The table's ``agree`` test on every row; margin = largest MC-exact gap."""

    def check(rows: list[Row]) -> tuple[Verdict, float, str]:
        failures = sum(not bool(row["agree"]) for row in rows)
        margin = max(abs(float(row[estimate]) - float(row["exact"])) for row in rows)
        verdict = Verdict.VIOLATED if failures else Verdict.HOLDS
        return verdict, margin, _failing(failures, len(rows))

    return Claim(label, f"{estimate} agrees with exact", check, where)


def tail_bound(
    label: str, *, bound: str, verdict: str, where: RowFilter | None = None
) -> Claim:
    """``empirical <= bound`` as judged by the table's ``verdict`` column.

    That column carries the Monte-Carlo slack; margin = least
    ``bound - empirical``.
    """

    def check(rows: list[Row]) -> tuple[Verdict, float, str]:
        failures = sum(not bool(row[verdict]) for row in rows)
        margin = min(float(row[bound]) - float(row["empirical"]) for row in rows)
        outcome = Verdict.VIOLATED if failures else Verdict.HOLDS
        return outcome, margin, _failing(failures, len(rows))

    return Claim(label, f"empirical <= {bound}", check, where)


def zero_violations(
    label: str,
    statement: str,
    test: Callable[[list[Row]], list[bool]],
    *,
    where: RowFilter | None = None,
) -> Claim:
    """No row or group may fail ``test``, which maps rows to pass/fail flags."""

    def check(rows: list[Row]) -> tuple[Verdict, float, str]:
        passed = test(rows)
        failures = sum(not ok for ok in passed)
        verdict = Verdict.VIOLATED if failures else Verdict.HOLDS
        return verdict, -failures, _failing(failures, len(passed), "rows/groups")

    return Claim(label, statement, check, where)


def each_row(predicate: Callable[[Row], Any]) -> Callable[[list[Row]], list[bool]]:
    """A :func:`zero_violations` test applying ``predicate`` to every row."""
    return lambda rows: [bool(predicate(row)) for row in rows]

