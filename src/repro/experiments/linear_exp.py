"""E-1D: the linear-array facts of Section 1.

Checks the three claims the paper recalls for the 1-D odd-even transposition
sort: the N-step worst case, the ``(N-1)/2`` average lower bound from the
smallest element's displacement, and the sharper ``N - O(sqrt(N))``
behaviour of the true average.
"""

from __future__ import annotations

import numpy as np

from repro.backends import run_sort
from repro.experiments.config import ExperimentConfig
from repro.experiments.montecarlo import summarize
from repro.experiments.tables import Table
from repro.linear.analysis import (
    average_lower_order,
    average_lower_smallest_element,
    worst_case_upper,
)
from repro.linear.odd_even import worst_case_input
from repro.randomness import as_generator
from repro.schedules import build_odd_even

__all__ = ["exp_linear"]


def exp_linear(cfg: ExperimentConfig) -> Table:
    """Measured 1-D averages vs the Section 1 bounds."""
    table = Table(
        title="E-1D: odd-even transposition sort on a linear array",
        headers=[
            "N",
            "trials",
            "mean steps",
            "(N-1)/2 bound",
            "N - 2*sqrt(N)",
            "worst-case input",
            "N upper bound",
        ],
    )
    table.add_note(
        "Section 1: worst case <= N; average >= (N-1)/2 and in fact N - O(sqrt(N))."
    )
    rng = as_generator((cfg.seed, 1))
    schedule = build_odd_even()
    for n in cfg.linear_sizes:
        trials = cfg.trials
        batch = np.empty((trials, n), dtype=np.int64)
        base = np.arange(n, dtype=np.int64)
        for i in range(trials):
            batch[i] = rng.permutation(base)
        # Each array runs as a 1 x N mesh; N + 2 steps always suffice, so a
        # capped run is a bug and must not enter the mean as -1.
        outcome = run_sort(
            cfg.execution.backend,
            schedule,
            batch.reshape(trials, 1, n),
            max_steps=n + 2,
            raise_on_cap=True,
        )
        stats = summarize(outcome.steps)
        worst = run_sort(
            cfg.execution.backend,
            schedule,
            worst_case_input(n).reshape(1, n),
            max_steps=n + 2,
            raise_on_cap=True,
        ).steps_scalar()
        table.add_row(
            n,
            trials,
            stats.mean,
            float(average_lower_smallest_element(n)),
            average_lower_order(n),
            worst,
            worst_case_upper(n),
        )
    return table
