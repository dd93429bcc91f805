"""Registry of every experiment reproducing the paper's results.

Experiment ids match the per-experiment index in DESIGN.md; each entry maps
to a callable ``(ExperimentConfig) -> Table`` and declares the paper claims
that table checks.  ``repro run`` exposes them on the command line and
prints a verdict per claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import DimensionError
from repro.experiments.adversarial import exp_corollary1, exp_no_wrap
from repro.experiments.appendix_exp import exp_appendix_average, exp_appendix_potential
from repro.experiments.average_case import (
    exp_theorem2,
    exp_theorem4,
    exp_theorem7,
    exp_theorem10,
    exp_theorem12_average,
)
from repro.experiments.campaign_exp import exp_campaign
from repro.experiments.claims import (
    Claim,
    each_row,
    exact_moment,
    lower_bound,
    per_trial_bound,
    tail_bound,
    zero_violations,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.decay_exp import exp_decay
from repro.experiments.exact_tails import exp_exact_tails
from repro.experiments.faults_exp import exp_faults
from repro.experiments.extensions import (
    exp_adaptivity,
    exp_constants,
    exp_distribution,
    exp_traffic,
    exp_worst_search,
)
from repro.experiments.linear_exp import exp_linear
from repro.experiments.rect_exp import exp_rectangles
from repro.experiments.moments_mc import (
    exp_moments_row_major,
    exp_moments_snake,
    exp_moments_variance,
)
from repro.experiments.scaling import exp_scaling
from repro.experiments.structure import (
    exp_invariants,
    exp_min_home,
    exp_potential_bounds,
)
from repro.experiments.tables import Table
from repro.experiments.tails import exp_tails, exp_theorem12_tail
from repro.experiments.verify_exp import exp_verify

__all__ = ["ExperimentSpec", "EXPERIMENTS", "run_experiment", "experiment_ids"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment: id, paper artifact, runner and claims.

    ``claims`` are the paper statements its table checks, evaluated by
    :func:`repro.experiments.claims.evaluate_claims`; an empty tuple
    declares an experiment that checks no claim.
    """

    exp_id: str
    paper_artifact: str
    run: Callable[[ExperimentConfig], Table]
    claims: tuple[Claim, ...]


def _is(column: str, value: str) -> Callable[[dict], bool]:
    return lambda row: row[column] == value


def _average_case(label: str) -> tuple[Claim, ...]:
    return (lower_bound(label, value="mean steps", bound="paper bound", ci="ci95 half"),)


def _flat_bands(rows: list) -> list[bool]:
    """E-SCALE shape, per algorithm: steps/N stays in a band for every
    bubble sort and falls with the side for the shearsort baseline."""
    by_algorithm: dict[str, dict] = {}
    for row in rows:
        by_algorithm.setdefault(row["algorithm"], {})[row["side"]] = row["steps/N"]
    return [
        by_side[max(by_side)] < by_side[min(by_side)] if name.startswith("shearsort")
        else max(by_side.values()) / min(by_side.values()) < 1.6
        for name, by_side in by_algorithm.items()
    ]


def _decays(row: dict) -> bool:
    """E-DECAY shape: the inversion fraction starts at 1, never rises and
    is nearly 0 by t = 2N."""
    checkpoints = sorted((h for h in row if h.startswith("q=")), key=lambda h: float(h[2:]))
    fractions = [row[h] for h in checkpoints]
    never_rises = all(a >= b - 1e-9 for a, b in zip(fractions, fractions[1:]))
    return row["q=0.0"] == 1.0 and never_rises and row["q=2.0"] < 0.05


def _transient(row: dict) -> bool:
    return isinstance(row["failure rate"], float)


_SPECS = (
    ExperimentSpec("E-1D", "Section 1 linear-array facts", exp_linear, (
        lower_bound("Section 1 average", value="mean steps", bound="(N-1)/2 bound"),
        zero_violations(
            "Section 1 worst case", "mean and worst-case input <= N",
            each_row(lambda r: max(r["mean steps"], r["worst-case input"])
                     <= r["N upper bound"]),
        ),
    )),
    ExperimentSpec("E-L123", "Lemmas 1-3, 5-8, 10 invariants", exp_invariants, (
        zero_violations("Lemmas 1-3, 5-8, 10", "violations == 0 on every trace",
                        each_row(lambda r: r["violations"] == 0)),
    )),
    ExperimentSpec(
        "E-T1", "Theorem 1 / Corollary 2, Theorems 6, 9 potential bounds",
        exp_potential_bounds, (
            per_trial_bound("Theorem 1 / Corollary 2",
                            where=lambda r: r["bound"].startswith("Corollary 2")),
            per_trial_bound("Theorem 6", where=lambda r: r["bound"].startswith("Theorem 6")),
            per_trial_bound("Theorem 9", where=lambda r: r["bound"].startswith("Theorem 9")),
        ),
    ),
    ExperimentSpec("E-C1", "Corollary 1 worst case", exp_corollary1, (
        lower_bound("Corollary 1", value="steps", bound="bound"),
    )),
    ExperimentSpec("E-NOWRAP", "Section 1 wrap-around necessity", exp_no_wrap, (
        zero_violations("Section 1 wrap-around necessity", "never sorted without wraps",
                        each_row(lambda r: not r["sorted"])),
    )),
    ExperimentSpec("E-L4", "Lemma 4 / Theorem 4 first moments", exp_moments_row_major, (
        exact_moment("Lemma 4", estimate="MC mean", where=_is("quantity", "E[Z1] row-first")),
        lower_bound("Lemma 4 (E[M] bound)", value="MC mean", bound="exact",
                    ci="ci95 half", verdict="agree",
                    where=_is("quantity", "E[M] row-first (>= bound)")),
        exact_moment("Theorem 4", estimate="MC mean", where=_is("quantity", "E[Z1] col-first")),
    )),
    ExperimentSpec("E-L9", "Lemmas 9, 11, 14 snakelike moments", exp_moments_snake, (
        exact_moment("Lemma 9", estimate="MC mean", where=_is("quantity", "E[Z1(0)] snake_1")),
        exact_moment("Lemma 11", estimate="MC mean", where=_is("quantity", "E[Y1(0)] snake_2")),
        exact_moment("Lemma 14", estimate="MC mean",
                     where=_is("quantity", "E[Z1(0)] snake_1 (odd)")),
    )),
    ExperimentSpec("E-VAR", "Theorems 3, 5, 8 variances", exp_moments_variance, (
        exact_moment("Theorem 3 variance", estimate="MC variance",
                     where=_is("quantity", "Var(Z1) row-first")),
        exact_moment("Theorem 8 variance", estimate="MC variance",
                     where=_is("quantity", "Var[Z1(0)] snake_1")),
    )),
    ExperimentSpec("E-T2", "Theorem 2 average case", exp_theorem2, _average_case("Theorem 2")),
    ExperimentSpec("E-T4", "Theorem 4 average case", exp_theorem4, _average_case("Theorem 4")),
    ExperimentSpec("E-T7", "Theorem 7 average case", exp_theorem7, _average_case("Theorem 7")),
    ExperimentSpec("E-T10", "Theorem 10 average case", exp_theorem10,
                   _average_case("Theorem 10")),
    ExperimentSpec("E-T12-avg", "Theorem 12 average case", exp_theorem12_average,
                   _average_case("Theorem 12")),
    ExperimentSpec("E-TAILS", "Theorems 3, 5, 8, 11 tails", exp_tails, tuple(
        tail_bound(f"Theorem {n}", bound="chebyshev bound", verdict="consistent",
                   where=_is("theorem", f"T{n}"))
        for n in (3, 5, 8, 11)
    )),
    ExperimentSpec("E-T12", "Theorem 12 tail", exp_theorem12_tail, (
        tail_bound("Theorem 12 tail", bound="bound delta/2 + delta/(2N)",
                   verdict="consistent"),
    )),
    ExperimentSpec("E-MINHOME", "Closing remark on the smallest element", exp_min_home, (
        zero_violations("Section 3 remark: snake_3 minimum", "snake_3 mean/N > 0.3",
                        each_row(lambda r: r["mean/N"] > 0.3),
                        where=_is("algorithm", "snake_3")),
        zero_violations("Section 3 remark: other minima", "mean/sqrt(N) < 5",
                        each_row(lambda r: r["mean/sqrt(N)"] < 5.0),
                        where=lambda r: r["algorithm"] != "snake_3"),
    )),
    ExperimentSpec("E-APP", "Appendix Corollary 4 averages", exp_appendix_average, (
        lower_bound("Corollary 4", value="mean steps", bound="corollary 4 bound",
                    verdict="bound holds", where=lambda r: r["algorithm"] != "snake_3"),
        lower_bound("Theorem 12 (odd side)", value="mean steps", bound="corollary 4 bound",
                    verdict="bound holds", where=_is("algorithm", "snake_3")),
    )),
    ExperimentSpec("E-APP-T13", "Appendix Theorem 13 potentials", exp_appendix_potential, (
        per_trial_bound("Theorem 13"),
    )),
    ExperimentSpec("E-SCALE", "Headline Theta(N) scaling figure", exp_scaling, (
        zero_violations("Theta(N) average case",
                        "steps/N flat (max/min < 1.6); shearsort's falls",
                        _flat_bands),
    )),
    ExperimentSpec("E-CONST", "Extension: fitted average-case constants", exp_constants, (
        zero_violations("Fitted c above the paper's bound", "c above bound",
                        each_row(lambda r: r["c above bound"])),
    )),
    ExperimentSpec("E-DIST", "Extension: step-count concentration", exp_distribution, (
        zero_violations("Step-count concentration", "(q95-q05)/median < 0.5",
                        each_row(lambda r: r["(q95-q05)/median"] < 0.5)),
    )),
    ExperimentSpec("E-TRAFFIC", "Extension: wire traffic accounting", exp_traffic, (
        zero_violations(
            "Wire traffic", "swaps <= comparisons; only row-major uses wrap wires",
            each_row(lambda r: r["swaps"] <= r["comparisons"]
                     and (r["wrap share"] > 0) == r["algorithm"].startswith("row_major")),
        ),
    )),
    ExperimentSpec("E-ADAPT", "Extension: input-order sensitivity", exp_adaptivity, (
        zero_violations(
            "Input-order sensitivity", "sorted input takes 0 steps; nearly sorted < random",
            each_row(lambda r: r["sorted"] == 0.0
                     and (r["nearly sorted"] < r["random"] or r["random"] == 0)),
        ),
    )),
    ExperimentSpec("E-WORST", "Extension: empirical worst-case search", exp_worst_search, (
        zero_violations("Worst case within the step cap", "within engine cap",
                        each_row(lambda r: r["within engine cap"])),
    )),
    ExperimentSpec("E-EXACT", "Extension: exact finite-n potential tails", exp_exact_tails, (
        tail_bound("Theorems 3, 5, 8, 11, 13 exact tails", bound="exact tail",
                   verdict="ordered"),
    )),
    ExperimentSpec("E-RECT", "Extension: rectangular meshes", exp_rectangles, (
        zero_violations("Theta(N) on rectangles", "0.4 < steps/N < 2.5",
                        each_row(lambda r: 0.4 < r["steps/N"] < 2.5)),
    )),
    ExperimentSpec("E-FAULT", "Extension: comparator fault injection", exp_faults, (
        zero_violations("Transient faults still sort", "all sorted",
                        each_row(lambda r: r["all sorted"]), where=_transient),
        zero_violations("Section 1: dead wrap wires never sort", "not all sorted",
                        each_row(lambda r: not r["all sorted"]),
                        where=lambda r: not _transient(r)),
    )),
    ExperimentSpec("E-DECAY", "Extension: inversion decay curves", exp_decay, (
        zero_violations("Inversion decay", "starts at 1, never rises, < 0.05 at t = 2N",
                        each_row(_decays)),
    )),
    # Infrastructure timing table: nothing in it is a paper claim.
    ExperimentSpec("E-CAMP", "Infrastructure: sharded parallel campaigns", exp_campaign, ()),
    ExperimentSpec("E-VERIFY", "Infrastructure: differential/metamorphic verification",
                   exp_verify, (
        zero_violations("Backend agreement", "failures == 0 for every property",
                        each_row(lambda r: r["failures"] == 0)),
    )),
)

EXPERIMENTS: dict[str, ExperimentSpec] = {spec.exp_id: spec for spec in _SPECS}


def experiment_ids() -> list[str]:
    return [spec.exp_id for spec in _SPECS]


def run_experiment(exp_id: str, cfg: ExperimentConfig | None = None) -> Table:
    """Run one experiment by id and return its result table."""
    if exp_id not in EXPERIMENTS:
        raise DimensionError(
            f"unknown experiment {exp_id!r}; known: {', '.join(experiment_ids())}"
        )
    return EXPERIMENTS[exp_id].run(cfg or ExperimentConfig())
