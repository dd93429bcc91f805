"""Exact finite-n distributions of the potential statistics.

The paper bounds the lower tails of :math:`Z_1` (Theorems 3, 5) and
:math:`Z_1(0)`, :math:`Y_1(0)` (Theorems 8, 11) by Chebyshev.  Each potential
is a sum of *block statistics* over pairwise-disjoint raw cell blocks (see
:func:`repro.theory.moments.snake1_z1_blocks`), and a block's outcome
depends on a filling only through the block's zero count.  Two exact
counts follow:

* :func:`indicator_sum_pmf` — for sums of "the block holds a zero"
  indicators (Theorems 3, 8, 11, 13), by inclusion–exclusion over the
  zero-free blocks: the fillings that leave a given set of blocks zero-free
  are counted by one binomial, so the PMF is O(#blocks^2) big-integer
  additions and needs no pass over the zero count;
* :func:`block_statistic_pmf` — for any block values (Theorem 5's
  :math:`z_h \\in \\{0, 1, 2\\}`), by dynamic programming over the blocks:
  reveal blocks one at a time, track (zeroes consumed, statistic value),
  and let the unblocked rest of the mesh absorb the remaining zeroes.  It
  is also the test oracle for :func:`indicator_sum_pmf`.

This yields *exact* tail probabilities — strictly sharper than the paper's
Chebyshev bounds at every finite n — which the E-EXACT experiment compares
against both Chebyshev and Monte Carlo.

Counting is done in big-integer arithmetic and normalized once at the end,
so PMFs are exact rationals represented as floats only on output.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np

from repro.errors import DimensionError
from repro.theory.hypergeom import paper_even_counts, paper_odd_counts
from repro.theory.moments import (
    BlockSpec,
    col_first_block,
    snake1_z1_blocks,
    snake2_y1_blocks,
)

__all__ = [
    "indicator_block",
    "block_statistic_pmf",
    "indicator_sum_pmf",
    "z1_row_first_pmf",
    "z1_col_first_pmf",
    "z1_0_snake1_pmf",
    "z1_0_snake1_odd_pmf",
    "y1_0_snake2_pmf",
    "lower_tail",
    "theorem3_tail_exact",
    "theorem5_tail_exact",
    "theorem8_tail_exact",
    "theorem11_tail_exact",
    "theorem13_tail_exact",
]


def indicator_block(size: int) -> BlockSpec:
    """The 'contains a zero' indicator over a ``size``-cell block."""
    if size < 1:
        raise DimensionError(f"block size must be positive, got {size}")
    outcomes = [(0, 1, 0)]
    outcomes += [(z, comb(size, z), 1) for z in range(1, size + 1)]
    return (size, tuple(outcomes))


def block_statistic_pmf(
    blocks: list[BlockSpec], zeros: int, cells: int
) -> np.ndarray:
    """Exact PMF of ``sum_B value_B`` for disjoint blocks on a uniform 0-1
    fill with exactly ``zeros`` zeroes among ``cells`` cells.

    Returns ``pmf`` with ``pmf[x] = Pr[statistic = x]`` (floats obtained
    from an exact big-integer count).
    """
    block_cells = sum(size for size, _ in blocks)
    if block_cells > cells:
        raise DimensionError("blocks cover more cells than the mesh has")
    if not 0 <= zeros <= cells:
        raise DimensionError(f"zeros={zeros} out of range for {cells} cells")
    max_value = sum(max(v for _, _, v in outcomes) for _, outcomes in blocks)
    # ways[z][x] = number of fillings of the processed blocks using z zeroes
    # with statistic x (big ints).
    ways: list[dict[int, int]] = [dict() for _ in range(zeros + 1)]
    ways[0][0] = 1
    for size, outcomes in blocks:
        new: list[dict[int, int]] = [dict() for _ in range(zeros + 1)]
        for z_used, row in enumerate(ways):
            if not row:
                continue
            for z_blk, weight, value in outcomes:
                z_new = z_used + z_blk
                if z_new > zeros:
                    continue
                target = new[z_new]
                for x, count in row.items():
                    target[x + value] = target.get(x + value, 0) + count * weight
        ways = new
    rest = cells - block_cells
    totals = [0] * (max_value + 1)
    for z_used, row in enumerate(ways):
        remaining = zeros - z_used
        if remaining > rest:
            continue
        absorb = comb(rest, remaining)
        if absorb == 0:
            continue
        for x, count in row.items():
            totals[x] += count * absorb
    denom = comb(cells, zeros)
    if sum(totals) != denom:
        raise DimensionError("internal error: block PMF does not normalize")
    return np.array([Fraction(t, denom) for t in totals], dtype=object)


def indicator_sum_pmf(sizes: list[int], zeros: int, cells: int) -> np.ndarray:
    """Exact PMF of the number of disjoint blocks (of the given ``sizes``)
    that hold a zero, on a uniform 0-1 fill with exactly ``zeros`` zeroes
    among ``cells`` cells.

    Equal to :func:`block_statistic_pmf` over ``indicator_block`` specs.
    With ``k`` blocks and ``N``, ``Z`` = ``cells``, ``zeros``, the fillings
    that leave a given block set ``S`` zero-free number
    ``C(N - cells(S), Z)``; summing over the ``m``-block sets (grouped by
    size) gives ``S_m``, and the count of fillings with exactly ``e``
    zero-free blocks is ``sum_{m >= e} (-1)^(m-e) C(m, e) S_m`` — the
    coefficients of ``sum_m S_m (u - 1)^m``.  The statistic is ``k - e``.
    """
    if any(size < 1 for size in sizes):
        raise DimensionError(f"block sizes must be positive, got {sizes}")
    covered = sum(sizes)
    if covered > cells:
        raise DimensionError("blocks cover more cells than the mesh has")
    if not 0 <= zeros <= cells:
        raise DimensionError(f"zeros={zeros} out of range for {cells} cells")
    # subsets[(m, w)] = number of m-block sets covering w cells in total.
    subsets: dict[tuple[int, int], int] = {(0, 0): 1}
    for size, count in Counter(sizes).items():
        grown: dict[tuple[int, int], int] = {}
        for (m, w), ways in subsets.items():
            for i in range(count + 1):
                key = (m + i, w + i * size)
                grown[key] = grown.get(key, 0) + ways * comb(count, i)
        subsets = grown
    k = len(sizes)
    zero_free = [comb(cells - w, zeros) for w in range(covered + 1)]
    coeffs = [0] * (k + 1)
    for (m, w), ways in subsets.items():
        coeffs[m] += ways * zero_free[w]
    # Taylor shift sum_m S_m t^m -> sum_m S_m (u - 1)^m, by additions only.
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            coeffs[j] -= coeffs[j + 1]
    denom = comb(cells, zeros)
    if sum(coeffs) != denom or min(coeffs) < 0:
        raise DimensionError("internal error: block PMF does not normalize")
    return np.array([Fraction(c, denom) for c in reversed(coeffs)], dtype=object)


def z1_row_first_pmf(n: int) -> np.ndarray:
    """Exact PMF of Theorem 3's :math:`Z_1` (zeroes in column 1 after the
    first row sort): 2n disjoint 2-cell blocks."""
    zeros, cells = paper_even_counts(n)
    return indicator_sum_pmf([2] * (2 * n), zeros, cells)


def z1_col_first_pmf(n: int) -> np.ndarray:
    """Exact PMF of Theorem 5's :math:`Z_1 = \\sum_h z_h` (n 2x2 blocks)."""
    zeros, cells = paper_even_counts(n)
    blocks = [col_first_block()] * n
    return block_statistic_pmf(blocks, zeros, cells)


def z1_0_snake1_pmf(side: int) -> np.ndarray:
    """Exact PMF of :math:`Z_1(0)` for the first snakelike algorithm."""
    if side % 2 != 0:
        raise DimensionError("use the appendix distribution for odd sides")
    zeros, cells = paper_even_counts(side // 2)
    return indicator_sum_pmf(snake1_z1_blocks(side), zeros, cells)


def z1_0_snake1_odd_pmf(side: int) -> np.ndarray:
    """Exact PMF of :math:`Z_1(0)` at odd side (appendix, Definition 12)."""
    if side % 2 != 1:
        raise DimensionError("this is the odd-side distribution")
    zeros, cells = paper_odd_counts(side // 2)
    return indicator_sum_pmf(snake1_z1_blocks(side), zeros, cells)


def y1_0_snake2_pmf(side: int) -> np.ndarray:
    """Exact PMF of :math:`Y_1(0)` for the second snakelike algorithm."""
    if side % 2 != 0:
        raise DimensionError("Y1 requires an even side")
    zeros, cells = paper_even_counts(side // 2)
    return indicator_sum_pmf(snake2_y1_blocks(side), zeros, cells)


def lower_tail(pmf: np.ndarray, threshold: float) -> Fraction:
    """``Pr[X <= threshold]`` for an exact PMF."""
    total = Fraction(0)
    for x, p in enumerate(pmf):
        if x <= threshold:
            total += p
    return total


def theorem3_tail_exact(side: int, gamma: Fraction) -> Fraction:
    """Exact ``Pr[Z_1 <= (gamma+1) n + 1]`` — the quantity Theorem 3 bounds
    by Chebyshev, evaluated exactly."""
    if side % 2 != 0:
        raise DimensionError("Theorem 3 applies to even sides")
    n = side // 2
    threshold = float((Fraction(gamma) + 1) * n + 1)
    return lower_tail(z1_row_first_pmf(n), threshold)


def theorem5_tail_exact(side: int, gamma: Fraction) -> Fraction:
    """Exact version of Theorem 5's tail."""
    if side % 2 != 0:
        raise DimensionError("Theorem 5 applies to even sides")
    n = side // 2
    threshold = float((Fraction(gamma) + 1) * n + 1)
    return lower_tail(z1_col_first_pmf(n), threshold)


def theorem8_tail_exact(side: int, gamma: Fraction) -> Fraction:
    """Exact ``Pr[Z1(0) <= gamma N/4 + f(N/2, N) + 1]`` (Theorem 8)."""
    from repro.zeroone.trackers import f_threshold

    n_cells = side * side
    threshold = float(
        Fraction(gamma) * Fraction(n_cells, 4) + f_threshold(n_cells // 2, n_cells) + 1
    )
    return lower_tail(z1_0_snake1_pmf(side), threshold)


def theorem13_tail_exact(side: int, gamma: Fraction) -> Fraction:
    """Exact odd-side tail via Theorem 13's threshold: the probability that
    ``Z1(0) <= gamma N/4 + ceil(alpha (N-1)/(2N)) + 1`` with the appendix's
    ``alpha = (N+1)/2``."""
    from repro.zeroone.trackers import f_threshold_odd

    if side % 2 != 1:
        raise DimensionError("Theorem 13 applies to odd sides")
    n_cells = side * side
    alpha = (n_cells + 1) // 2
    threshold = float(
        Fraction(gamma) * Fraction(n_cells, 4) + f_threshold_odd(alpha, n_cells) + 1
    )
    return lower_tail(z1_0_snake1_odd_pmf(side), threshold)


def theorem11_tail_exact(side: int, gamma: Fraction) -> Fraction:
    """Exact version of Theorem 11's tail."""
    from repro.zeroone.trackers import y_threshold

    n_cells = side * side
    threshold = float(
        Fraction(gamma) * Fraction(n_cells, 4) + y_threshold(n_cells // 2) + 1
    )
    return lower_tail(y1_0_snake2_pmf(side), threshold)
