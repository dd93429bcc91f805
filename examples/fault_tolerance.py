#!/usr/bin/env python
"""Sorting under comparator failures.

Run:  python examples/fault_tolerance.py [side]

Three demonstrations on top of the fault model of ``repro.core.faults``:

1. transient failures (each comparator no-ops with probability p): every
   algorithm still sorts, and small noise can even *help* the row-major
   algorithms;
2. dead wrap-around wires: the smallest-column adversary is trapped forever
   (Section 1's argument, reproduced as a permanent fault);
3. a single dead comparator: the sort typically deadlocks with the damage
   confined to the dead pair's neighbourhood.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.backends import run_sort, step_cap
from repro.core import ALGORITHM_NAMES, get_algorithm
from repro.core.faults import TransientFaults, with_dead_pairs
from repro.core.orders import target_grid
from repro.randomness import random_permutation_grid
from repro.schedules import smallest_column_adversary


def main() -> None:
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    if side % 2 != 0:
        raise SystemExit("use an even side")
    rng = np.random.default_rng(17)
    trials = 24

    print("1) transient failures — mean steps (all runs sort):\n")
    rates = (0.0, 0.1, 0.3, 0.5)
    print(f"{'algorithm':22s} " + " ".join(f"p={r:<6.1f}" for r in rates))
    for name in ALGORITHM_NAMES:
        grids = np.stack([random_permutation_grid(side, rng=rng) for _ in range(trials)])
        row = []
        for rate in rates:
            out = run_sort(
                TransientFaults(rate, rng), get_algorithm(name), grids,
                max_steps=40 * side * side, raise_on_cap=True,
            )
            row.append(float(np.mean(out.steps)))
        print(f"{name:22s} " + " ".join(f"{v:8.1f}" for v in row))

    print("\n2) dead wrap wires on the smallest-column adversary:")
    dead_wrap = [((h, side - 1), (h + 1, 0)) for h in range(side - 1)]
    schedule = with_dead_pairs(get_algorithm("row_major_row_first"), side, side, dead_wrap)
    out = run_sort(
        "vectorized", schedule, smallest_column_adversary(side),
        max_steps=8 * side * side,
    )
    print(f"   sorted after {8 * side * side} steps? "
          f"{'yes' if out.all_completed else 'NO — trapped, as Section 1 predicts'}")

    print("\n3) one dead comparator ((2,2)-(2,3)) on random inputs:")
    schedule = with_dead_pairs(
        get_algorithm("row_major_row_first"), side, side, [((2, 2), (2, 3))]
    )
    stuck = 0
    for _ in range(8):
        grid = random_permutation_grid(side, rng=rng)
        out = run_sort("vectorized", schedule, grid, max_steps=step_cap(side))
        if not out.all_completed:
            stuck += 1
            tgt = target_grid(grid, side, "row_major")
            rows = sorted({int(r) for r, _ in np.argwhere(out.final != tgt)})
            print(f"   deadlocked; mismatches confined to rows {rows}")
    print(f"   {stuck}/8 runs deadlocked — permanent faults are fatal, "
          "transient ones are not.")


if __name__ == "__main__":
    main()
