#!/usr/bin/env python
"""The five algorithms on rectangular meshes (extension).

Run:  python examples/rectangular_meshes.py [N]

Holds the cell count roughly fixed and sweeps the aspect ratio, showing
that the Θ(N) average is a property of the algorithms — not of squareness —
and how the constants react to elongation.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.backends import run_sort
from repro.core import ALGORITHM_NAMES, get_algorithm


def shapes_for(n_target: int) -> list[tuple[int, int]]:
    side = max(int(round(n_target**0.5)) // 2 * 2, 4)
    return [
        (side, side),
        (side // 2, side * 2),
        (side * 2, side // 2),
        (side // 2 + 1, side * 2),
        (2, side * side // 2),
    ]


def main() -> None:
    n_target = int(sys.argv[1]) if len(sys.argv) > 1 else 144
    rng = np.random.default_rng(9)
    trials = 24

    shapes = shapes_for(n_target)
    print(f"{'algorithm':22s} " + " ".join(f"{r}x{c}".rjust(9) for r, c in shapes))
    for name in ALGORITHM_NAMES:
        schedule = get_algorithm(name)
        cells = []
        for rows, cols in shapes:
            if schedule.requires_even_side and cols % 2 != 0:
                cells.append("   (odd)")
                continue
            n_cells = rows * cols
            grids = np.stack(
                [rng.permutation(n_cells).reshape(rows, cols) for _ in range(trials)]
            )
            out = run_sort("vectorized", schedule, grids, raise_on_cap=True)
            cells.append(f"{float(np.mean(out.steps)) / n_cells:9.3f}")
        print(f"{name:22s} " + " ".join(cells))
    print("\n(entries are mean steps / N; '(odd)' = wrap constraint violated)")


if __name__ == "__main__":
    main()
