"""Registry of every experiment reproducing the paper's results.

Experiment ids match the per-experiment index in DESIGN.md; each entry maps
to a callable ``(ExperimentConfig) -> Table``.  The benchmark harness runs
one experiment per bench target, and ``repro run`` exposes them on the
command line.
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
    """One reproducible experiment: id, paper artifact, and runner."""

    exp_id: str
    paper_artifact: str
    run: Callable[[ExperimentConfig], Table]


_SPECS = (
    ExperimentSpec("E-1D", "Section 1 linear-array facts", exp_linear),
    ExperimentSpec("E-L123", "Lemmas 1-3, 5-8, 10 invariants", exp_invariants),
    ExperimentSpec("E-T1", "Theorem 1 / Corollary 2, Theorems 6, 9 potential bounds",
                   exp_potential_bounds),
    ExperimentSpec("E-C1", "Corollary 1 worst case", exp_corollary1),
    ExperimentSpec("E-NOWRAP", "Section 1 wrap-around necessity", exp_no_wrap),
    ExperimentSpec("E-L4", "Lemma 4 / Theorem 4 first moments", exp_moments_row_major),
    ExperimentSpec("E-L9", "Lemmas 9, 11, 14 snakelike moments", exp_moments_snake),
    ExperimentSpec("E-VAR", "Theorems 3, 5, 8 variances", exp_moments_variance),
    ExperimentSpec("E-T2", "Theorem 2 average case", exp_theorem2),
    ExperimentSpec("E-T4", "Theorem 4 average case", exp_theorem4),
    ExperimentSpec("E-T7", "Theorem 7 average case", exp_theorem7),
    ExperimentSpec("E-T10", "Theorem 10 average case", exp_theorem10),
    ExperimentSpec("E-T12-avg", "Theorem 12 average case", exp_theorem12_average),
    ExperimentSpec("E-TAILS", "Theorems 3, 5, 8, 11 tails", exp_tails),
    ExperimentSpec("E-T12", "Theorem 12 tail", exp_theorem12_tail),
    ExperimentSpec("E-MINHOME", "Closing remark on the smallest element", exp_min_home),
    ExperimentSpec("E-APP", "Appendix Corollary 4 averages", exp_appendix_average),
    ExperimentSpec("E-APP-T13", "Appendix Theorem 13 potentials", exp_appendix_potential),
    ExperimentSpec("E-SCALE", "Headline Theta(N) scaling figure", exp_scaling),
    ExperimentSpec("E-CONST", "Extension: fitted average-case constants", exp_constants),
    ExperimentSpec("E-DIST", "Extension: step-count concentration", exp_distribution),
    ExperimentSpec("E-TRAFFIC", "Extension: wire traffic accounting", exp_traffic),
    ExperimentSpec("E-ADAPT", "Extension: input-order sensitivity", exp_adaptivity),
    ExperimentSpec("E-WORST", "Extension: empirical worst-case search", exp_worst_search),
    ExperimentSpec("E-EXACT", "Extension: exact finite-n potential tails", exp_exact_tails),
    ExperimentSpec("E-RECT", "Extension: rectangular meshes", exp_rectangles),
    ExperimentSpec("E-FAULT", "Extension: comparator fault injection", exp_faults),
    ExperimentSpec("E-DECAY", "Extension: inversion decay curves", exp_decay),
    ExperimentSpec("E-CAMP", "Infrastructure: sharded parallel campaigns", exp_campaign),
    ExperimentSpec("E-VERIFY", "Infrastructure: differential/metamorphic verification",
                   exp_verify),
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
