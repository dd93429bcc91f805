"""Exact first and second moments of the paper's potential statistics.

Two complementary implementations are provided for every quantity:

* ``*_paper`` — the closed-form rational functions printed in the paper
  (Lemmas 4, 9, 11 and the computations inside Theorems 3, 5, 8); and
* exact combinatorial evaluations built directly from hypergeometric
  pattern probabilities (:mod:`repro.theory.hypergeom`), which serve as
  ground truth.

The test suite checks the printed forms against the exact ones.  Where the
two *disagree* (the paper's Var[Z1(0)] constant ``17/8`` in Theorem 8 — our
exact computation and Monte Carlo both give ``~n^2/8``), the exact value is
authoritative and the discrepancy is documented in EXPERIMENTS.md; the
theorem's conclusion is unaffected (smaller variance only strengthens the
Chebyshev concentration).

Throughout, the mesh has even side ``2n`` with :math:`2n^2` zeroes among
:math:`4n^2` cells unless stated otherwise; odd-side (appendix) variants
live in :mod:`repro.theory.appendix`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from repro.errors import DimensionError
from repro.theory.hypergeom import (
    all_ones_probability,
    paper_even_counts,
    pattern_probability,
)

__all__ = [
    # row-major, row-first (Lemma 4, Theorem 3)
    "e_z1_row_first",
    "e_z1_row_first_paper",
    "e_z1z2_row_first",
    "e_z1z2_row_first_paper",
    "e_Z1_row_first",
    "var_Z1_row_first",
    "e_M_lower_row_first_paper",
    # row-major, column-first (Theorem 4, Theorem 5)
    "BlockSpec",
    "zh_value_col_first",
    "col_first_block",
    "prob_zh_col_first",
    "e_z1_col_first",
    "e_z1_col_first_paper",
    "e_z1sq_col_first",
    "e_z1sq_col_first_paper",
    "e_z1z2_col_first",
    "e_z1z2_col_first_paper",
    "e_Z1_col_first",
    "var_Z1_col_first",
    "e_M_lower_col_first_paper",
    # block machinery + snakelike (Lemmas 9, 11, Theorem 8)
    "snake1_z1_blocks",
    "snake2_y1_blocks",
    "expected_from_blocks",
    "variance_from_blocks",
    "e_Z1_0_snake1",
    "e_Z1_0_snake1_paper",
    "var_Z1_0_snake1",
    "var_Z1_0_snake1_paper",
    "e_Y1_0_snake2",
    "e_Y1_0_snake2_paper",
    "var_Y1_0_snake2",
]


#: A block statistic: (cells in block, [(zeroes, #patterns, statistic value)]).
BlockSpec = tuple[int, tuple[tuple[int, int, int], ...]]


def _check_n(n: int) -> None:
    if n < 1:
        raise DimensionError(f"n must be a positive integer, got {n}")


# ---------------------------------------------------------------------------
# Row-major algorithm beginning with a row sort (Lemma 4 / Theorem 3)
# ---------------------------------------------------------------------------

def e_z1_row_first(n: int) -> Fraction:
    """Exact :math:`E[z_1]`: the probability that cell (1,1) holds a zero
    after the first row sort, i.e. that cells (1,1),(1,2) of
    :math:`\\mathcal{A}^{01}` are not both ones."""
    _check_n(n)
    zeros, cells = paper_even_counts(n)
    return 1 - all_ones_probability(2, zeros, cells)


def e_z1_row_first_paper(n: int) -> Fraction:
    """Lemma 4's printed closed form ``3/4 + 1/(16 n^2 - 4)``."""
    _check_n(n)
    return Fraction(3, 4) + Fraction(1, 16 * n * n - 4)


def e_z1z2_row_first(n: int) -> Fraction:
    """Exact :math:`E[z_1 z_2] = \\Pr[z_1 = z_2 = 1]` by inclusion-exclusion
    over the two row pairs (1,1),(1,2) and (2,1),(2,2)."""
    _check_n(n)
    zeros, cells = paper_even_counts(n)
    q2 = all_ones_probability(2, zeros, cells)
    q4 = all_ones_probability(4, zeros, cells)
    return 1 - 2 * q2 + q4


def e_z1z2_row_first_paper(n: int) -> Fraction:
    """Theorem 3's printed ``9/16 + (n^2 - 3/8)/(32 n^4 - 32 n^2 + 6)``."""
    _check_n(n)
    return Fraction(9, 16) + (Fraction(n * n) - Fraction(3, 8)) / Fraction(
        32 * n**4 - 32 * n**2 + 6
    )


def e_Z1_row_first(n: int) -> Fraction:
    """Exact :math:`E[Z_1] = 2n \\cdot E[z_1]` — expected zeroes in column 1
    after the first row sort."""
    return 2 * n * e_z1_row_first(n)


def var_Z1_row_first(n: int) -> Fraction:
    """Exact :math:`\\mathrm{Var}(Z_1)` (Theorem 3 gives the asymptote
    ``n (3/8 - o(1))``)."""
    ez = e_z1_row_first(n)
    ezz = e_z1z2_row_first(n)
    two_n = 2 * n
    return two_n * ez + two_n * (two_n - 1) * ezz - (two_n * ez) ** 2


def e_M_lower_row_first_paper(n: int) -> Fraction:
    """Lemma 4: ``E[M] >= n/2 + n/(8 n^2 - 2) - 1``."""
    _check_n(n)
    return Fraction(n, 2) + Fraction(n, 8 * n * n - 2) - 1


# ---------------------------------------------------------------------------
# Row-major algorithm beginning with a column sort (Theorems 4-5)
# ---------------------------------------------------------------------------

def zh_value_col_first(pattern: tuple[int, int, int, int]) -> int:
    """The block statistic :math:`z_h \\in \\{0, 1, 2\\}` of Theorem 4.

    ``pattern`` is the raw 2x2 block of :math:`\\mathcal{A}^{01}` in reading
    order ``(a11, a12, a21, a22)``.  After the first column sort and row
    sort, the block becomes a canonical form determined by its zero count —
    except that the two "vertically stacked" 2-zero patterns (01/01) and
    (10/10) sort to (01/01), putting *both* zeroes in the left column.
    ``z_h`` counts the zeroes of the left column of the sorted block.
    """
    if len(pattern) != 4 or any(b not in (0, 1) for b in pattern):
        raise DimensionError(f"pattern must be four bits, got {pattern!r}")
    z = 4 - sum(pattern)
    if z >= 3:
        return 2
    if z == 2:
        return 2 if pattern in ((0, 1, 0, 1), (1, 0, 1, 0)) else 1
    if z == 1:
        return 1
    return 0


def col_first_block() -> BlockSpec:
    """Theorem 4's 2x2 block statistic :math:`z_h \\in \\{0, 1, 2\\}`.

    The 16 raw patterns of :func:`zh_value_col_first`, grouped by zero
    count: the two vertically-stacked 2-zero patterns score 2, the other
    four score 1.
    """
    return (
        4,
        (
            (0, 1, 0),
            (1, 4, 1),
            (2, 4, 1),
            (2, 2, 2),
            (3, 4, 2),
            (4, 1, 2),
        ),
    )


def prob_zh_col_first(n: int) -> dict[int, Fraction]:
    """Exact distribution of :math:`z_1` from the grouped block table."""
    _check_n(n)
    zeros, cells = paper_even_counts(n)
    dist: dict[int, Fraction] = {0: Fraction(0), 1: Fraction(0), 2: Fraction(0)}
    size, outcomes = col_first_block()
    for z, count, value in outcomes:
        dist[value] += count * pattern_probability(z, size, zeros, cells)
    return dist


def e_z1_col_first(n: int) -> Fraction:
    """Exact :math:`E[z_1]` for the column-first analysis."""
    dist = prob_zh_col_first(n)
    return dist[1] + 2 * dist[2]


def e_z1_col_first_paper(n: int) -> Fraction:
    """Theorem 4's printed ``11/8 + (n^2 - 9/8)/(16 n^4 - 16 n^2 + 3)``."""
    _check_n(n)
    return Fraction(11, 8) + (Fraction(n * n) - Fraction(9, 8)) / Fraction(
        16 * n**4 - 16 * n**2 + 3
    )


def e_z1sq_col_first(n: int) -> Fraction:
    """Exact :math:`E[z_1^2]`."""
    dist = prob_zh_col_first(n)
    return dist[1] + 4 * dist[2]


def e_z1sq_col_first_paper(n: int) -> Fraction:
    """Theorem 5's printed ``9/4 - 3/(64 n^4 - 64 n^2 + 12)``."""
    _check_n(n)
    return Fraction(9, 4) - Fraction(3, 64 * n**4 - 64 * n**2 + 12)


def e_z1z2_col_first(n: int) -> Fraction:
    """Exact :math:`E[z_1 z_2]` for the two disjoint 2x2 blocks (rows 1-4 of
    columns 1-2).

    A filling's probability depends only on its zero count, so the 6x6
    outcome pairs of :func:`col_first_block` fold into one weight per total
    zero count: at most 9 hypergeometric terms.
    """
    _check_n(n)
    zeros, cells = paper_even_counts(n)
    size, outcomes = col_first_block()
    weight: Counter[int] = Counter()
    for za, wa, va in outcomes:
        for zb, wb, vb in outcomes:
            weight[za + zb] += wa * wb * va * vb
    return sum(
        (w * pattern_probability(z, 2 * size, zeros, cells) for z, w in weight.items()),
        Fraction(0),
    )


def e_z1z2_col_first_paper(n: int) -> Fraction:
    """Theorem 5's printed
    ``121/64 - (20 n^6 - (219/2) n^4 + 241 n^2 - 12495/64) / (256 n^8 - 1024 n^6 + 1376 n^4 - 704 n^2 + 105)``."""
    _check_n(n)
    num = (
        20 * Fraction(n) ** 6
        - Fraction(219, 2) * Fraction(n) ** 4
        + 241 * Fraction(n) ** 2
        - Fraction(12495, 64)
    )
    den = Fraction(256 * n**8 - 1024 * n**6 + 1376 * n**4 - 704 * n**2 + 105)
    return Fraction(121, 64) - num / den


def e_Z1_col_first(n: int) -> Fraction:
    """Exact :math:`E[Z_1] = n \\cdot E[z_1]` for the column-first analysis."""
    return n * e_z1_col_first(n)


def var_Z1_col_first(n: int) -> Fraction:
    """Exact :math:`\\mathrm{Var}(Z_1)` (Theorem 5: asymptote ``n(23/64 - o(1))``)."""
    ez = e_z1_col_first(n)
    ezsq = e_z1sq_col_first(n)
    ezz = e_z1z2_col_first(n)
    return n * ezsq + n * (n - 1) * ezz - (n * ez) ** 2


def e_M_lower_col_first_paper(n: int) -> Fraction:
    """Theorem 4: ``E[M] >= (3/8) n + (n^3 - (9/8) n)/(16 n^4 - 16 n^2 + 3) - 1``."""
    _check_n(n)
    return (
        Fraction(3 * n, 8)
        + (Fraction(n) ** 3 - Fraction(9, 8) * n) / Fraction(16 * n**4 - 16 * n**2 + 3)
        - 1
    )


# ---------------------------------------------------------------------------
# Block machinery for the snakelike potentials
# ---------------------------------------------------------------------------

def snake1_z1_blocks(side: int) -> list[int]:
    """Disjoint raw-cell block sizes whose "contains a zero" indicators sum
    to :math:`Z_1(0)` for the first snakelike algorithm.

    After step 1 (paper-odd rows: odd bubble step; paper-even rows: even
    reverse step) each cell counted by Definition 4 (even side) or
    Definition 12 (odd side) holds the minimum of a fixed set of one or two
    raw cells, and those sets are pairwise disjoint:

    * paper-odd rows: each counted column-pair cell is ``min`` of a raw
      horizontal pair — one size-2 block per pair;
    * paper-even rows: column 1 is untouched (size-1), interior counted
      cells are ``min`` of the pair to their left (size-2), and the last
      column is untouched for even side (size-1) but paired for odd side
      (size-2, the reverse step's final pair).

    This decomposition makes both moments exactly computable and is verified
    against Monte Carlo and against Lemmas 9/14's closed forms by the tests.
    """
    if side < 2:
        raise DimensionError(f"side must be >= 2, got {side}")
    blocks: list[int] = []
    if side % 2 == 0:
        half = side // 2
        # paper-odd rows (count side/2): counted cells are paper-odd columns
        # 1..side-1 -> one size-2 block per horizontal odd pair.
        blocks += [2] * (half * half)
        # paper-even rows (count side/2): column 1 raw, interior odd columns
        # are min-pairs, last column raw (Definition 4 counts it).
        blocks += ([1] + [2] * (half - 1) + [1]) * half
    else:
        n = side // 2  # side = 2n+1
        # paper-odd rows (count n+1): columns 1,3,...,2n-1 are min of pairs
        # (c, c+1); Definition 12 does not count the last (2n+1-th) column
        # in odd rows.
        blocks += [2] * ((n + 1) * n)
        # paper-even rows (count n): column 1 raw; columns 3..2n-1 are
        # min-pairs; the last column *is* counted (Definition 12's even rows
        # of column 2n+1) and is the min of the reverse step's final pair.
        blocks += ([1] + [2] * (n - 1) + [2]) * n
    return blocks


def snake2_y1_blocks(side: int) -> list[int]:
    """Disjoint block sizes for :math:`Y_1(0)` (Definition 8, even side):
    zeroes in the paper-odd columns after step 1."""
    if side < 2 or side % 2 != 0:
        raise DimensionError(f"Y1 blocks require an even side, got {side}")
    half = side // 2
    blocks: list[int] = []
    blocks += [2] * (half * half)  # paper-odd rows
    blocks += ([1] + [2] * (half - 1)) * half  # paper-even rows: col 1 raw
    return blocks


def expected_from_blocks(sizes: list[int], zeros: int, cells: int) -> Fraction:
    """:math:`E[\\sum_B 1(\\text{block } B \\text{ has a zero})]` for disjoint blocks."""
    counts = Counter(sizes)
    return sum(
        (count * (1 - all_ones_probability(s, zeros, cells)) for s, count in counts.items()),
        Fraction(0),
    )


def variance_from_blocks(sizes: list[int], zeros: int, cells: int) -> Fraction:
    """Exact variance of the same sum, including all cross-block covariances.

    For disjoint blocks ``B, C``: ``E[X_B X_C] = 1 - q_{|B|} - q_{|C|} +
    q_{|B|+|C|}`` with ``q_k`` the probability that ``k`` fixed cells are all
    ones.  Group identical sizes to keep the computation O(#distinct^2).
    """
    counts = Counter(sizes)
    q = {0: Fraction(1)}
    for s in set(counts) | {a + b for a in counts for b in counts}:
        q[s] = all_ones_probability(s, zeros, cells)
    var = Fraction(0)
    for s, count in counts.items():
        p = 1 - q[s]
        var += count * p * (1 - p)
    for s, cs in counts.items():
        for u, cu in counts.items():
            pairs = cs * cu - (cs if s == u else 0)
            if pairs == 0:
                continue
            exy = 1 - q[s] - q[u] + q[s + u]
            cov = exy - (1 - q[s]) * (1 - q[u])
            var += pairs * cov
    return var


# ---------------------------------------------------------------------------
# Snakelike first moments (Lemmas 9 and 11) and second moments (Theorem 8)
# ---------------------------------------------------------------------------

def _even_side_counts(side: int) -> tuple[int, int]:
    if side % 2 != 0:
        raise DimensionError(f"expected an even side, got {side}")
    return paper_even_counts(side // 2)


def e_Z1_0_snake1(side: int) -> Fraction:
    """Exact :math:`E[Z_1(0)]` for the first snakelike algorithm (even side;
    the odd-side variant is :func:`repro.theory.appendix.e_Z1_0_snake1_odd`)."""
    zeros, cells = _even_side_counts(side)
    return expected_from_blocks(snake1_z1_blocks(side), zeros, cells)


def e_Z1_0_snake1_paper(side: int) -> Fraction:
    """Lemma 9: ``3N/8 + sqrt(N)/8 + sqrt(N)/(8 (sqrt(N)+1))``."""
    if side % 2 != 0:
        raise DimensionError(f"Lemma 9 is for even side, got {side}")
    n_cells = side * side
    return (
        Fraction(3 * n_cells, 8)
        + Fraction(side, 8)
        + Fraction(side, 8 * (side + 1))
    )


def var_Z1_0_snake1(side: int) -> Fraction:
    """Exact :math:`\\mathrm{Var}[Z_1(0)]` via the block decomposition.

    Note: the paper's Theorem 8 prints ``n^2 (17/8 + o(1))``; the exact value
    (confirmed by Monte Carlo) is ``~ n^2/8``.  Theorem 8's conclusion is
    unaffected — see EXPERIMENTS.md.
    """
    zeros, cells = _even_side_counts(side)
    return variance_from_blocks(snake1_z1_blocks(side), zeros, cells)


def var_Z1_0_snake1_paper(n: int) -> Fraction:
    """The paper's printed Var[Z1(0)] (Theorem 8):
    ``(17/8) n^2 - (7/16) n + (11 n^2 + 6 n)/(8n+4)^2 + (3/8)(n^2-n)/(8n^2-6)``.

    Kept verbatim for the record; contradicted by :func:`var_Z1_0_snake1`.
    """
    _check_n(n)
    return (
        Fraction(17, 8) * n * n
        - Fraction(7, 16) * n
        + Fraction(11 * n * n + 6 * n, (8 * n + 4) ** 2)
        + Fraction(3, 8) * Fraction(n * n - n, 8 * n * n - 6)
    )


def e_Y1_0_snake2(side: int) -> Fraction:
    """Exact :math:`E[Y_1(0)]` for the second snakelike algorithm."""
    zeros, cells = _even_side_counts(side)
    return expected_from_blocks(snake2_y1_blocks(side), zeros, cells)


def e_Y1_0_snake2_paper(side: int) -> Fraction:
    """Lemma 11: ``3N/8 - sqrt(N)/8 + sqrt(N)/(8 (sqrt(N)+1))``."""
    if side % 2 != 0:
        raise DimensionError(f"Lemma 11 is for even side, got {side}")
    n_cells = side * side
    return (
        Fraction(3 * n_cells, 8)
        - Fraction(side, 8)
        + Fraction(side, 8 * (side + 1))
    )


def var_Y1_0_snake2(side: int) -> Fraction:
    """Exact :math:`\\mathrm{Var}[Y_1(0)]` via the block decomposition."""
    zeros, cells = _even_side_counts(side)
    return variance_from_blocks(snake2_y1_blocks(side), zeros, cells)
