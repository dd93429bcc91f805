"""Extension experiments beyond the paper's statements.

The paper proves Θ(N) lower bounds; these experiments push further along
the directions its introduction motivates:

* **E-CONST** — estimate the actual average-case constants ``c`` in
  ``E[steps] ~ c N`` for each algorithm by least squares over a side sweep
  (the paper only pins ``c >= 1/2`` resp. ``3/8``; the true constants are
  part of what "average case analysis" would ultimately want).
* **E-DIST** — distribution shape: quantiles of ``steps/N`` per algorithm,
  showing the concentration that Theorems 3/5/8/11 assert asymptotically.
* **E-TRAFFIC** — hardware cost on the processor-level machine: comparator
  firings, swap fraction, and the share of work done by the wrap-around
  wires (the "extra wires" whose penalty Section 1 discusses).
* **E-ADAPT** — sensitivity to input order: already-sorted, nearly-sorted,
  reversed, and random inputs (bubble sorts are adaptive in 1-D; how much
  of that survives in 2-D?).
* **E-WORST** — empirical worst-case search over structured adversaries +
  random probing, against Corollary 1 and the O(N) worst-case claim.
"""

from __future__ import annotations

import numpy as np

from repro.backends import run_sort, step_cap
from repro.core.algorithms import ALGORITHM_NAMES, ROW_MAJOR_NAMES, get_algorithm
from repro.core.orders import target_grid
from repro.core.runner import resolve_algorithm, sort_grid
from repro.experiments.config import ExperimentConfig
from repro.experiments.sampling import sample
from repro.experiments.tables import Table
from repro.mesh.machine import mesh_sort
from repro.randomness import as_generator, random_permutation_grid
from repro.schedules import smallest_column_adversary

__all__ = [
    "exp_constants",
    "exp_distribution",
    "exp_traffic",
    "exp_adaptivity",
    "exp_worst_search",
]

_LOWER_CONSTANTS = {
    "row_major_row_first": 0.5,  # Theorem 2
    "row_major_col_first": 0.375,  # Theorem 4
    "snake_1": 0.5,  # Theorem 7
    "snake_2": 0.5,  # Theorem 10
    "snake_3": 1.0,  # Theorem 12's displacement average ~ N - 2
}


def exp_constants(cfg: ExperimentConfig) -> Table:
    """E-CONST: fitted average-case constants ``E[steps] ~ c*N + b*sqrt(N)``."""
    table = Table(
        title="E-CONST: fitted average-case constants (steps ~ c*N + b*sqrt(N))",
        headers=["algorithm", "fitted c", "fitted b", "paper lower bound on c",
                 "c above bound", "residual rel."],
    )
    table.add_note(
        "Least squares of mean steps on (N, sqrt(N)) across the side sweep; "
        "the paper's theorems only lower-bound c."
    )
    sides = cfg.even_sides
    for name in ALGORITHM_NAMES:
        n_vals, means = [], []
        for side in sides:
            res = sample(name, side=side, trials=cfg.trials,
                         seed=(cfg.seed, side, 31), execution=cfg.execution)
            n_vals.append(side * side)
            means.append(res.stats.mean)
        design = np.column_stack([n_vals, np.sqrt(n_vals)])
        coef, residual, *_ = np.linalg.lstsq(design, np.asarray(means), rcond=None)
        fitted = design @ coef
        rel = float(np.max(np.abs(fitted - means) / np.asarray(means)))
        lower = _LOWER_CONSTANTS[name]
        table.add_row(name, float(coef[0]), float(coef[1]), lower,
                      coef[0] >= lower - 0.05, rel)
    return table


def exp_distribution(cfg: ExperimentConfig) -> Table:
    """E-DIST: quantiles of steps/N — the concentration picture."""
    table = Table(
        title="E-DIST: distribution of steps/N (largest side of the sweep)",
        headers=["algorithm", "side", "q05", "q25", "median", "q75", "q95",
                 "(q95-q05)/median"],
    )
    table.add_note(
        "Theorems 3/5/8/11 say mass below ~N/2 vanishes; the whole "
        "distribution in fact concentrates around its Theta(N) mean."
    )
    side = cfg.even_sides[-1]
    n_cells = side * side
    for name in ALGORITHM_NAMES:
        steps = sample(name, side=side, trials=max(cfg.trials, 64),
                       seed=(cfg.seed, side, 32),
                       execution=cfg.execution).values / n_cells
        q05, q25, q50, q75, q95 = np.quantile(steps, [0.05, 0.25, 0.5, 0.75, 0.95])
        table.add_row(name, side, q05, q25, q50, q75, q95, (q95 - q05) / q50)
    return table


def exp_traffic(cfg: ExperimentConfig) -> Table:
    """E-TRAFFIC: comparator firings and wrap-wire share per sort."""
    table = Table(
        title="E-TRAFFIC: processor-level wire traffic per sorted permutation",
        headers=["algorithm", "side", "steps", "comparisons", "swaps",
                 "swap fraction", "wrap share"],
    )
    table.add_note(
        "Wrap share = fraction of comparator firings on the wrap-around "
        "wires (only the row-major algorithms have them)."
    )
    rng = as_generator((cfg.seed, 51))
    side = cfg.even_sides[0]
    for name in ALGORITHM_NAMES:
        grid = random_permutation_grid(side, rng=rng)
        t_f, machine = mesh_sort(
            get_algorithm(name), grid, max_steps=step_cap(side)
        )
        comparisons = machine.stats.total_comparisons()
        swaps = machine.stats.total_swaps()
        wrap = sum(
            count
            for (a, b), count in machine.stats.comparisons.items()
            if abs(a[1] - b[1]) > 1
        )
        table.add_row(
            name, side, t_f, comparisons, swaps,
            swaps / comparisons if comparisons else 0.0,
            wrap / comparisons if comparisons else 0.0,
        )
    return table


def _nearly_sorted(side: int, order: str, swaps: int, rng) -> np.ndarray:
    grid = target_grid(np.arange(side * side), side, order)
    flat = grid.ravel()
    for _ in range(swaps):
        i = int(rng.integers(0, flat.size - 1))
        flat[i], flat[i + 1] = flat[i + 1], flat[i]
    return flat.reshape(side, side)


def exp_adaptivity(cfg: ExperimentConfig) -> Table:
    """E-ADAPT: steps on sorted / nearly-sorted / random / reversed inputs."""
    table = Table(
        title="E-ADAPT: input-order sensitivity (steps / N)",
        headers=["algorithm", "side", "sorted", "nearly sorted", "random", "reversed"],
    )
    table.add_note(
        "nearly sorted = sqrt(N) random adjacent transpositions of the "
        "target; reversed = target order reversed."
    )
    rng = as_generator((cfg.seed, 61))
    side = cfg.even_sides[-1]
    n_cells = side * side
    for name in ALGORITHM_NAMES:
        schedule = resolve_algorithm(name)
        sorted_grid = target_grid(np.arange(n_cells), side, schedule.order)
        nearly = _nearly_sorted(side, schedule.order, side, rng)
        random_grid = random_permutation_grid(side, rng=rng)
        reversed_grid = target_grid(np.arange(n_cells), side, schedule.order)[::-1, ::-1].copy()
        row = [name, side]
        for grid in (sorted_grid, nearly, random_grid, reversed_grid):
            report = sort_grid(
                name, grid, raise_on_cap=True, backend=cfg.execution.backend
            )
            row.append(report.steps_scalar() / n_cells)
        table.add_row(*row)
    return table


def exp_worst_search(cfg: ExperimentConfig) -> Table:
    """E-WORST: empirical worst cases vs Corollary 1 and the O(N) claim."""
    table = Table(
        title="E-WORST: worst observed steps over structured + random adversaries",
        headers=["algorithm", "side", "worst steps", "worst input", "corollary 1 bound",
                 "worst/N", "within engine cap"],
    )
    table.add_note(
        "Structured candidates: smallest-column (each column), reversed "
        "target, anti-diagonal; plus random probing.  Corollary 1 applies "
        "to the row-major algorithms only."
    )
    rng = as_generator((cfg.seed, 71))
    side = cfg.even_sides[0]
    n_cells = side * side
    probes = max(cfg.trials // 2, 16)
    for name in ALGORITHM_NAMES:
        schedule = resolve_algorithm(name)
        candidates: list[tuple[str, np.ndarray]] = []
        for col in range(side):
            candidates.append((f"column-{col}", smallest_column_adversary(side, column=col)))
        tgt = target_grid(np.arange(n_cells), side, schedule.order)
        candidates.append(("reversed", tgt[::-1, ::-1].copy()))
        candidates.append(("transposed", tgt.T.copy()))
        best_steps, best_label = -1, ""
        for label, grid in candidates:
            steps = sort_grid(
                name, grid, raise_on_cap=True, backend=cfg.execution.backend
            ).steps_scalar()
            if steps > best_steps:
                best_steps, best_label = steps, label
        random_steps = run_sort(
            cfg.execution.backend, schedule,
            random_permutation_grid(side, batch=probes, rng=rng),
        ).steps
        if int(random_steps.max()) > best_steps:
            best_steps, best_label = int(random_steps.max()), "random probe"
        cor1 = 2 * n_cells - 4 * side if name in ROW_MAJOR_NAMES else "-"
        table.add_row(
            name, side, best_steps, best_label, cor1,
            best_steps / n_cells, best_steps <= step_cap(side),
        )
    return table
