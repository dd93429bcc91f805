"""E-DECAY: inversion decay curves — how the disorder drains over a run.

The paper's potentials certify that disorder drains *slowly* (at most one
potential unit per cycle).  This experiment records the complementary
global view: the number of inversions against the target order at
checkpoints ``t = q * N``, averaged over seeds, for every algorithm.  The
resulting series is the reproduction-era "figure 2": snake_1's curve dives
first (its constant is ~N/2), snake_3's stretches to ~2N, and all five hit
zero at Θ(N).
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend
from repro.core.algorithms import ALGORITHM_NAMES
from repro.core.runner import resolve_algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import Table
from repro.randomness import as_generator, random_permutation_grid
from repro.zeroone.diagnostics import inversions

__all__ = ["exp_decay"]

_CHECKPOINTS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def exp_decay(cfg: ExperimentConfig) -> Table:
    """Mean inversion fraction remaining at step checkpoints t = q*N."""
    table = Table(
        title="E-DECAY: fraction of inversions remaining at t = q*N",
        headers=["algorithm", "side"] + [f"q={q}" for q in _CHECKPOINTS],
    )
    table.add_note(
        "Inversions counted in the target-order traversal, normalized by the "
        "start value; mean over trials."
    )
    rng = as_generator((cfg.seed, 111))
    side = cfg.even_sides[min(1, len(cfg.even_sides) - 1)]
    n_cells = side * side
    trials = max(cfg.trials // 8, 4)
    for name in ALGORITHM_NAMES:
        schedule = resolve_algorithm(name)
        grids = random_permutation_grid(side, batch=trials, rng=rng)
        run = get_backend().prepare(schedule, grids)
        start = np.maximum([inversions(g, schedule.order) for g in grids], 1)
        fractions = np.zeros((trials, len(_CHECKPOINTS)))
        t = 0
        for qi, q in enumerate(_CHECKPOINTS):
            t_goal = int(round(q * n_cells))
            # Sorted grids are fixed points, so the batch stops stepping
            # once every grid is sorted.
            while t < t_goal and not run.done_mask().all():
                t += 1
                run.apply_step(t)
            now = run.materialize()
            fractions[:, qi] = [inversions(g, schedule.order) for g in now] / start
        means = fractions.mean(axis=0)
        table.add_row(name, side, *[float(v) for v in means])
    return table
