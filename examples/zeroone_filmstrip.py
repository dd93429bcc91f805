#!/usr/bin/env python
"""Filmstrip of a 0-1 matrix under the row-first row-major algorithm.

Run:  python examples/zeroone_filmstrip.py [side] [cycles]

Visualizes the paper's travel lemmas: start from a random threshold matrix
A01 (# marks the zeroes — the small half of the values) and watch the
zeroes drift toward the odd columns and the top, wrapping from column 1 to
column 2n at the even row steps.
"""

from __future__ import annotations

import sys

from repro.backends import iter_run
from repro.core import get_algorithm
from repro.randomness import random_zero_one_grid
from repro.viz import filmstrip
from repro.zeroone import z1_statistic
from repro.zeroone.weights import column_zeros


def main() -> None:
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    cycles = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    if side % 2 != 0:
        raise SystemExit("the row-major algorithms require an even side")
    grid = random_zero_one_grid(side, rng=11)

    frames = [grid]
    labels = ["t=0"]
    schedule = get_algorithm("row_major_row_first")
    for t, snap in iter_run("vectorized", schedule, grid, 4 * cycles):
        if t % 4 == 0:  # one frame per full cycle
            frames.append(snap)
            labels.append(f"t={t}")

    print(f"Random A01 on a {side}x{side} mesh under row_major_row_first "
          f"(# = zero; one frame per 4-step cycle):\n")
    print(filmstrip(frames, labels=labels))

    print("\nZeroes per column over the same frames (watch them equalize):")
    for label, frame in zip(labels, frames):
        zeros = column_zeros(frame)
        print(f"  {label:>6s}: {' '.join(f'{int(z):2d}' for z in zeros)}"
              f"   (snake potential Z1 = {z1_statistic(frame)})")


if __name__ == "__main__":
    main()
