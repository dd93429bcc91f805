"""E-EXACT: exact finite-n tails vs Chebyshev vs Monte Carlo.

The sharpest possible finite-n statement of Theorems 3, 5, 8, 11: the
potential statistics are disjoint-block sums, so their lower tails can be
computed *exactly* (:mod:`repro.theory.distributions`).  This experiment
prints, per (theorem, side, gamma):

* the empirical frequency of ``steps <= gamma N`` (always the smallest),
* the exact probability of the potential event that implies it, and
* the paper's Chebyshev bound on that same event (always the largest).

The ordering empirical <= exact <= chebyshev must hold up to Monte-Carlo
noise; its consistent truth is the strongest evidence that the potential
argument, the moments, and the simulator all describe the same system.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.sampling import sample
from repro.experiments.tables import Table
from repro.theory.chebyshev import (
    theorem3_tail_bound,
    theorem5_tail_bound,
    theorem8_tail_bound,
    theorem11_tail_bound,
)
from repro.theory.distributions import (
    theorem3_tail_exact,
    theorem5_tail_exact,
    theorem8_tail_exact,
    theorem11_tail_exact,
    theorem13_tail_exact,
)

__all__ = ["exp_exact_tails"]

_CASES = (
    ("T3", "row_major_row_first", theorem3_tail_exact, theorem3_tail_bound),
    ("T5", "row_major_col_first", theorem5_tail_exact, theorem5_tail_bound),
    ("T8", "snake_1", theorem8_tail_exact, theorem8_tail_bound),
    ("T11", "snake_2", theorem11_tail_exact, theorem11_tail_bound),
)


def exp_exact_tails(cfg: ExperimentConfig) -> Table:
    """Exact potential tails sandwiched between empirical and Chebyshev."""
    table = Table(
        title="E-EXACT: Pr[steps <= gamma*N] — empirical <= exact potential tail <= Chebyshev",
        headers=["theorem", "side", "gamma", "empirical", "exact tail", "chebyshev", "ordered"],
    )
    table.add_note(
        "The exact column is the full PMF of the potential statistic "
        "(disjoint-block DP), i.e. the best bound the paper's argument can "
        "ever give at this n; Chebyshev is what the paper uses."
    )
    # The caps fix which rows the table has; they do not bound a cost (the
    # exact PMFs are O(#blocks^2) big-int additions, 0.04 s at side 32).
    sides = [s for s in cfg.even_sides if s <= (16 if cfg.scale == "quick" else 32)]
    gamma = Fraction(1, 10)
    for theorem, algorithm, exact_fn, cheb_fn in _CASES:
        for side in sides:
            steps = sample(
                algorithm, side=side, trials=cfg.trials,
                seed=(cfg.seed, side, 91), execution=cfg.execution,
            ).values
            n_cells = side * side
            empirical = float(np.mean(steps <= float(gamma) * n_cells))
            exact = float(exact_fn(side, gamma))
            cheb = float(cheb_fn(side, gamma))
            slack = 3 * np.sqrt(max(empirical * (1 - empirical), 1e-4) / cfg.trials)
            table.add_row(
                theorem, side, float(gamma), empirical, exact, cheb,
                empirical <= exact + slack and exact <= cheb + 1e-12,
            )
    # Odd-side rows for the appendix (Theorem 13): no Chebyshev counterpart
    # is printed in the paper, so the exact tail stands alone against the
    # empirical frequency.
    odd_sides = [s for s in cfg.odd_sides if s <= (13 if cfg.scale == "quick" else 27)]
    for side in odd_sides:
        steps = sample(
            "snake_1", side=side, trials=cfg.trials,
            seed=(cfg.seed, side, 92), execution=cfg.execution,
        ).values
        n_cells = side * side
        empirical = float(np.mean(steps <= float(gamma) * n_cells))
        exact = float(theorem13_tail_exact(side, gamma))
        slack = 3 * np.sqrt(max(empirical * (1 - empirical), 1e-4) / cfg.trials)
        table.add_row(
            "T13 (odd)", side, float(gamma), empirical, exact, float("nan"),
            empirical <= exact + slack,
        )
    return table
