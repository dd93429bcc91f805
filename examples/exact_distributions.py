#!/usr/bin/env python
"""Exact distributions of the paper's potential statistics.

Run:  python examples/exact_distributions.py [side]

Computes the full exact PMF of Z1(0) (the first snakelike algorithm's
potential after step 1) via the disjoint-block dynamic program, draws it
as an ASCII chart against a Monte-Carlo histogram, and prints the exact
lower-tail probabilities that sharpen Theorem 8's Chebyshev bound.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

from repro.backends import run_steps
from repro.core import get_algorithm
from repro.randomness import random_zero_one_grid
from repro.theory.chebyshev import theorem8_tail_bound
from repro.theory.distributions import (
    lower_tail,
    theorem8_tail_exact,
    z1_0_snake1_pmf,
)
from repro.theory.moments import e_Z1_0_snake1
from repro.zeroone import z1_statistic


def main() -> None:
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    if side % 2 != 0:
        raise SystemExit("use an even side")

    pmf = z1_0_snake1_pmf(side)
    floats = np.array([float(p) for p in pmf])
    mean = float(e_Z1_0_snake1(side))
    print(f"Exact PMF of Z1(0) for snake_1 on a {side}x{side} mesh "
          f"(mean {mean:.3f}, support 0..{len(pmf) - 1})\n")

    # Monte-Carlo histogram for comparison
    grids = random_zero_one_grid(side, batch=20000, rng=1)
    after = run_steps("vectorized", get_algorithm("snake_1"), grids, 1)
    values = np.asarray(z1_statistic(after))
    hist = np.bincount(values, minlength=len(pmf)) / len(values)

    lo = max(int(mean) - 18, 0)
    hi = min(int(mean) + 18, len(pmf) - 1)
    peak = floats[lo : hi + 1].max()
    print(f"{'x':>5s} {'exact':>9s} {'MC':>9s}  (bar = exact)")
    for x in range(lo, hi + 1):
        bar = "#" * int(round(44 * floats[x] / peak))
        print(f"{x:5d} {floats[x]:9.5f} {hist[x]:9.5f}  {bar}")

    print("\nExact lower tails vs Theorem 8's Chebyshev bound (gamma = 0.1):")
    gamma = Fraction(1, 10)
    exact = float(theorem8_tail_exact(side, gamma))
    cheb = float(theorem8_tail_bound(side, gamma))
    print(f"  exact Pr[potential event] = {exact:.3e}")
    print(f"  Chebyshev bound           = {cheb:.3e}")
    print(f"  -> the potential argument is ~{cheb / max(exact, 1e-300):.1e}x "
          "stronger than the paper's Chebyshev step reports")

    print("\nExact CDF checkpoints:")
    for frac in (0.25, 0.5, 0.75, 1.0):
        t = mean * frac
        print(f"  Pr[Z1(0) <= {t:7.2f}] = {float(lower_tail(pmf, t)):.3e}")


if __name__ == "__main__":
    main()
