"""The verification orchestrator behind ``repro verify``.

:func:`run_verify` sweeps the whole property surface in one call:

* **differential** — every deterministic input case from
  :mod:`repro.verify.inputs` through every backend, cell-for-cell
  (:mod:`repro.verify.differential`);
* **static** — the schedule-shape verifier from
  :mod:`repro.analysis.schedule_check` on each (algorithm, side) cell,
  proving the schedule well-formed without executing a comparator;
* **metamorphic** — 0-1 threshold consistency and relabeling invariance on
  the permutation cases, the live lemma observer on the 0-1 cases
  (:mod:`repro.verify.metamorphic`);
* **corpus** — replay of every shrunk reproducer committed under
  ``tests/verify/corpus/`` (:mod:`repro.verify.corpus`).

Budgets pick the sweep size: ``smoke`` is the CI gate (small sides, one
case per family, sampled thresholds — seconds), ``deep`` is the nightly
sweep (more sides including odd ones, full threshold sweeps — minutes).

Every failing check is minimized with :mod:`repro.verify.shrink` and, when
``failure_dir`` is set, serialized as a :class:`~repro.verify.corpus
.Reproducer` for triage.  Progress lands in ``repro_verify_*`` metrics on
the given :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.schedule_check import check_schedule
from repro.backends import available_backends
from repro.errors import DimensionError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timing import StopWatch
from repro.randomness import mesh_zero_count
from repro.schedules import (
    available_families,
    build_schedule,
    get_family,
    mesh_shape,
    parse_spec,
)
from repro.verify.corpus import Reproducer, load_corpus, replay_reproducer, save_reproducer
from repro.verify.differential import differential_run
from repro.verify.inputs import generate_cases, generate_linear_cases
from repro.verify.metamorphic import (
    check_relabeling_invariance,
    check_threshold_consistency,
    run_with_invariants,
)
from repro.verify.shrink import shrink_case

__all__ = ["BUDGETS", "VerifyConfig", "CheckRecord", "VerifyReport", "run_verify"]

#: Sweep sizes per budget.  ``thresholds_cap`` bounds the number of z values
#: per threshold-consistency check (None = the full N-1 sweep, which is the
#: only mode that can assert the 0-1 principle's *exact* equality).
BUDGETS = {
    "smoke": {
        "sides": (4, 6),
        "permutations": 1,
        "zero_ones": 1,
        "near_sorted": 1,
        "thresholds_cap": 4,
        "metamorphic_cases": 1,
    },
    "deep": {
        "sides": (4, 5, 6, 8),
        "permutations": 3,
        "zero_ones": 3,
        "near_sorted": 2,
        "thresholds_cap": None,
        "metamorphic_cases": None,  # all eligible cases
    },
}


@dataclass
class VerifyConfig:
    """One verification sweep's shape."""

    budget: str = "smoke"
    algorithms: tuple[str, ...] = field(default_factory=available_families)
    backends: tuple[str, ...] | None = None  # None = every registered backend
    seed: int = 0
    corpus_dir: str | Path | None = None  # replay these reproducers
    failure_dir: str | Path | None = None  # save shrunk counterexamples here
    shrink: bool = True
    max_shrink_evaluations: int = 300

    def __post_init__(self) -> None:
        if self.budget not in BUDGETS:
            raise DimensionError(
                f"budget must be one of {', '.join(BUDGETS)}, got {self.budget!r}"
            )
        for name in self.algorithms:
            # Family names and bracketed specs both validate; unknown names
            # raise UnknownScheduleError listing the registered families.
            get_family(parse_spec(name)[0])
        names = available_backends()
        if self.backends is not None:
            missing = set(self.backends) - set(names)
            if missing:
                raise DimensionError(
                    f"unknown backends {sorted(missing)}; available: {', '.join(names)}"
                )

    @property
    def resolved_backends(self) -> tuple[str, ...]:
        return tuple(self.backends) if self.backends else tuple(available_backends())

    def sides_for(self, algorithm: str) -> tuple[int, ...]:
        """Budgeted sides, honouring ``requires_even_side``.

        A spec that pins its own side (``"shearsort[side=8]"``) sweeps just
        that side — the budget's list would silently rebuild the same
        pinned instance against differently sized inputs.
        """
        base, params = parse_spec(algorithm)
        family = get_family(base)
        if "side" in params:
            return (int(params["side"]),)
        sides = BUDGETS[self.budget]["sides"]
        if family.requires_even_side:
            sides = tuple(s for s in sides if s % 2 == 0)
        return sides


@dataclass
class CheckRecord:
    """One property checked on one (algorithm, side, case)."""

    prop: str  # "differential" | "threshold_consistency" | ...
    algorithm: str
    side: int
    case: str  # input-case name, or corpus filename stem
    violations: list[str] = field(default_factory=list)
    shrunk: str = ""  # ShrinkResult.describe() when a failure was minimized
    saved_to: str = ""  # reproducer path when one was written

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        head = f"{self.prop} {self.algorithm} side={self.side} case={self.case}"
        if self.ok:
            return f"{head}: ok"
        lines = [f"{head}: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        if self.shrunk:
            lines.append(f"  shrunk to {self.shrunk}")
        if self.saved_to:
            lines.append(f"  reproducer saved to {self.saved_to}")
        return "\n".join(lines)


@dataclass
class VerifyReport:
    """Everything one :func:`run_verify` sweep established."""

    budget: str
    algorithms: tuple[str, ...]
    backends: tuple[str, ...]
    records: list[CheckRecord] = field(default_factory=list)
    corpus_entries: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.ok]

    def counts_by_property(self) -> dict[str, tuple[int, int]]:
        """``prop -> (checks, failures)`` in insertion order."""
        out: dict[str, tuple[int, int]] = {}
        for record in self.records:
            checks, fails = out.get(record.prop, (0, 0))
            out[record.prop] = (checks + 1, fails + (0 if record.ok else 1))
        return out

    def summary(self) -> str:
        lines = [
            f"verify[{self.budget}] algorithms={','.join(self.algorithms)} "
            f"backends={','.join(self.backends)}"
        ]
        for prop, (checks, fails) in self.counts_by_property().items():
            status = "ok" if fails == 0 else f"{fails} FAILED"
            lines.append(f"  {prop}: {checks} checks, {status}")
        if self.corpus_entries:
            lines.append(f"  corpus: {self.corpus_entries} reproducer(s) replayed")
        lines.append(
            f"{'PASS' if self.ok else 'FAIL'}: "
            f"{len(self.records) - len(self.failures)}/{len(self.records)} checks "
            f"in {self.elapsed_seconds:.2f}s"
        )
        if not self.ok:
            lines += [r.describe() for r in self.failures]
        return "\n".join(lines)

    def to_table(self):
        """The sweep as a :class:`repro.experiments.tables.Table`."""
        from repro.experiments.tables import Table  # avoid an import cycle

        table = Table(
            title=f"repro verify --{self.budget}",
            headers=["property", "checks", "failures"],
        )
        for prop, (checks, fails) in sorted(self.counts_by_property().items()):
            table.add_row(prop, checks, fails)
        table.add_note(
            f"algorithms={','.join(self.algorithms)}; "
            f"backends={','.join(self.backends)}; "
            f"corpus entries replayed={self.corpus_entries}"
        )
        return table


def _threshold_subset(n_cells: int, cap: int | None) -> list[int] | None:
    """A small, spread set of z values for the smoke budget (None = full)."""
    if cap is None:
        return None
    picks = {1, n_cells // 4, mesh_zero_count(n_cells), n_cells - 1}
    return sorted(p for p in picks if 1 <= p < n_cells)[:cap]


def _record(
    report: VerifyReport,
    metrics: "_VerifyMetrics",
    record: CheckRecord,
) -> CheckRecord:
    report.records.append(record)
    metrics.checks.inc()
    if not record.ok:
        metrics.violations.inc(len(record.violations))
    return record


class _VerifyMetrics:
    """The ``repro_verify_*`` instrument family on one registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.checks = registry.counter(
            "repro_verify_checks_total", "verification checks executed"
        )
        self.violations = registry.counter(
            "repro_verify_violations_total", "property violations observed"
        )
        self.counterexamples = registry.counter(
            "repro_verify_counterexamples_total", "shrunk counterexamples produced"
        )
        self.corpus_replays = registry.counter(
            "repro_verify_corpus_replays_total", "corpus reproducers replayed"
        )
        self.seconds = registry.timer(
            "repro_verify_seconds", "wall-time per verification sweep"
        )


def _shrink_failure(
    config: VerifyConfig,
    metrics: _VerifyMetrics,
    record: CheckRecord,
    fails,
    grid: np.ndarray,
    order: str,
) -> None:
    """Minimize a failing grid and optionally persist the reproducer."""
    if not config.shrink:
        return
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        return  # the shrinker's side-reduction machinery is square-only
    try:
        result = shrink_case(
            fails, grid, order=order, max_evaluations=config.max_shrink_evaluations
        )
    except DimensionError:
        return  # flaky predicate (no longer fails): keep the raw record
    record.shrunk = result.describe()
    metrics.counterexamples.inc()
    if config.failure_dir is None:
        return
    rep = Reproducer(
        prop=record.prop,
        algorithm=record.algorithm,
        grid=result.grid.tolist(),
        detail=record.violations[0] if record.violations else "",
        source=f"shrunk from {record.case} side={record.side} ({record.shrunk})",
    )
    record.saved_to = str(save_reproducer(config.failure_dir, rep))


def run_verify(
    config: VerifyConfig | None = None,
    *,
    registry: MetricsRegistry | None = None,
) -> VerifyReport:
    """Run the configured verification sweep and report every check."""
    config = config or VerifyConfig()
    registry = registry or MetricsRegistry()
    metrics = _VerifyMetrics(registry)
    budget = BUDGETS[config.budget]
    backends = config.resolved_backends
    report = VerifyReport(
        budget=config.budget, algorithms=tuple(config.algorithms), backends=backends
    )
    watch = StopWatch().start()

    with metrics.seconds.time():
        for name in config.algorithms:
            for side in config.sides_for(name):
                schedule = build_schedule(name, side, seed=config.seed)
                rows, cols = mesh_shape(schedule, side)
                if rows == cols:
                    cases = generate_cases(
                        side,
                        schedule.order,
                        seed=config.seed,
                        permutations=budget["permutations"],
                        zero_ones=budget["zero_ones"],
                        near_sorted=budget["near_sorted"],
                    )
                else:
                    cases = generate_linear_cases(
                        cols,
                        seed=config.seed,
                        permutations=budget["permutations"],
                        zero_ones=budget["zero_ones"],
                        near_sorted=budget["near_sorted"],
                    )
                _verify_cell(
                    config, metrics, report, schedule, side, (rows, cols), cases
                )

        if config.corpus_dir is not None:
            for rep in load_corpus(config.corpus_dir):
                metrics.corpus_replays.inc()
                report.corpus_entries += 1
                _record(
                    report,
                    metrics,
                    CheckRecord(
                        prop=f"corpus:{rep.prop}",
                        algorithm=rep.algorithm,
                        side=rep.side,
                        case=f"{rep.prop}-{rep.digest}",
                        violations=replay_reproducer(rep),
                    ),
                )

    report.elapsed_seconds = watch.stop()
    return report


def _verify_cell(
    config: VerifyConfig,
    metrics: _VerifyMetrics,
    report: VerifyReport,
    schedule,
    side: int,
    shape: tuple[int, int],
    cases,
) -> None:
    """All properties for one (family instance, side) cell.

    ``schedule`` is the concrete registry-built instance; its name (which
    bakes in any generator parameters and seed) labels every record.
    """
    rows, cols = shape
    name = schedule.name
    square = rows == cols
    backends = config.resolved_backends
    budget = BUDGETS[config.budget]
    n_cells = rows * cols

    # Static: the schedule-shape verifier, before any comparator runs.
    # A clean report also certifies obliviousness, which is what licenses
    # the 0-1-principle-based metamorphic checks below.
    static = check_schedule(schedule, rows, cols)
    _record(
        report,
        metrics,
        CheckRecord(
            prop="static_schedule",
            algorithm=name,
            side=side,
            case="schedule",
            violations=[f"{v.rule}[{v.severity}]: {v.message}" for v in static.violations],
        ),
    )

    # Differential: every case through every (topology-capable) backend.
    for case in cases:
        diff = differential_run(schedule, case.grid, backends=backends)
        record = _record(
            report,
            metrics,
            CheckRecord(
                prop="differential",
                algorithm=name,
                side=side,
                case=case.name,
                violations=[m.describe() for m in diff.mismatches],
            ),
        )
        if not record.ok:
            _shrink_failure(
                config,
                metrics,
                record,
                lambda g: not differential_run(schedule, g, backends=backends).ok,
                case.grid,
                schedule.order,
            )

    # Metamorphic: permutation-shaped cases only (both checks need ranks).
    perms = [
        c
        for c in cases
        if sorted(np.asarray(c.grid).reshape(-1).tolist()) == list(range(n_cells))
    ]
    cap = budget["metamorphic_cases"]
    zs = _threshold_subset(n_cells, budget["thresholds_cap"])
    for case in perms if cap is None else perms[:cap]:
        record = _record(
            report,
            metrics,
            CheckRecord(
                prop="threshold_consistency",
                algorithm=name,
                side=side,
                case=case.name,
                violations=check_threshold_consistency(
                    schedule, case.grid, thresholds=zs
                ),
            ),
        )
        if not record.ok:
            _shrink_failure(
                config,
                metrics,
                record,
                lambda g: bool(
                    check_threshold_consistency(schedule, g, thresholds=zs)
                ),
                case.grid,
                schedule.order,
            )
        record = _record(
            report,
            metrics,
            CheckRecord(
                prop="relabeling_invariance",
                algorithm=name,
                side=side,
                case=case.name,
                violations=check_relabeling_invariance(
                    schedule, case.grid, seed=config.seed
                ),
            ),
        )
        if not record.ok:
            _shrink_failure(
                config,
                metrics,
                record,
                lambda g: bool(
                    check_relabeling_invariance(schedule, g, seed=config.seed)
                ),
                case.grid,
                schedule.order,
            )

    # Live lemma invariants on every 0-1 case.  The lemmas are statements
    # about square runs; the observer deactivates on 1 x N meshes, so the
    # property is only claimed where it can actually be checked.
    if not square:
        return
    zero_ones = [
        c for c in cases if set(np.unique(np.asarray(c.grid)).tolist()) <= {0, 1}
    ]
    for case in zero_ones:
        record = _record(
            report,
            metrics,
            CheckRecord(
                prop="lemma_invariants",
                algorithm=name,
                side=side,
                case=case.name,
                violations=run_with_invariants(schedule, case.grid),
            ),
        )
        if not record.ok:
            _shrink_failure(
                config,
                metrics,
                record,
                lambda g: bool(run_with_invariants(schedule, g)),
                case.grid,
                schedule.order,
            )
