#!/usr/bin/env python
"""Worst-case inputs and the necessity of wrap-around wires.

Run:  python examples/adversarial_inputs.py [side]

Shows three things on the smallest-column adversary (smallest sqrt(N)
values stacked in column 1):

1. both row-major algorithms need >= 2N - 4*sqrt(N) steps (Corollary 1),
   far above their ~N average;
2. without the wrap-around wires the input can *never* be sorted
   (Section 1's motivation for the extra wires);
3. the processor-level mesh machine agrees with the vectorized engine and
   shows how much traffic the wrap wires carry.
"""

from __future__ import annotations

import sys

from repro.core import get_algorithm, sort_grid
from repro.mesh import mesh_sort
from repro.schedules import smallest_column_adversary
from repro.theory.bounds import corollary1_worst_case_lower
from repro.viz import render_zero_one
from repro.zeroone import threshold_matrix


def main() -> None:
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    if side % 2 != 0:
        raise SystemExit("row-major algorithms require an even side")
    n_cells = side * side
    adversary = smallest_column_adversary(side)

    print(f"Adversarial input on a {side}x{side} mesh — threshold view "
          f"(# = one of the {side} smallest values):\n")
    print(render_zero_one(threshold_matrix(adversary, side)))
    print()

    bound = corollary1_worst_case_lower(side)
    for name in ("row_major_row_first", "row_major_col_first"):
        report = sort_grid(name, adversary)
        print(f"{name:22s} sorts it in {report.steps_scalar():5d} steps "
              f"(Corollary 1 bound: {bound}, average is ~{n_cells})")

    cap = 8 * n_cells
    report = sort_grid("row_major_no_wrap", adversary, max_steps=cap)
    print(f"\nwithout wrap-around wires: sorted after {cap} steps? "
          f"{'yes' if report.outcome.all_completed else 'NO — the column is trapped'}")

    t_f, machine = mesh_sort(get_algorithm("row_major_row_first"), adversary,
                             max_steps=8 * n_cells)
    wrap_traffic = sum(
        count for (a, b), count in machine.stats.comparisons.items()
        if abs(a[1] - b[1]) > 1
    )
    print(f"\nprocessor-level machine: t_f = {t_f} (matches the engine), "
          f"{machine.stats.total_comparisons()} comparator firings, "
          f"{wrap_traffic} on the wrap wires")


if __name__ == "__main__":
    main()
