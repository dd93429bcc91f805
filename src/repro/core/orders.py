"""Target orders for mesh sorting: row-major and snakelike.

The paper's algorithms finish with the input either in *row-major* order
(the m-th smallest value in row ``floor((m-1)/sqrt(N)) + 1``, column
``((m-1) mod sqrt(N)) + 1``) or in *snakelike* order (odd rows run left to
right, even rows right to left).  Both orders read the same on any
``rows x cols`` mesh — the paper's square mesh is the case ``rows == cols``
and its Section 1 linear array the case ``rows == 1`` — so the rank grids
and :func:`target_grid` take the mesh shape as ``(rows, ..., cols=...)``
with ``cols`` defaulting to ``rows`` for square callers, and the
sortedness predicates read the shape from the grid.  The single-cell maps
:func:`position_of_rank` / :func:`rank_of_position` follow the paper's
square placement rule.

This module provides, for each order:

* a *rank grid* — an integer array whose cell ``(r, c)`` holds the 0-based
  rank of the value that belongs there when the sort is complete;
* target-grid construction for arbitrary input values (including ties, which
  occur for the 0-1 matrices used throughout the paper's analysis);
* vectorized sortedness predicates that accept batched grids shaped
  ``(..., rows, cols)``.

Rows and columns are 0-based in code; the paper's 1-based "odd rows" are the
0-based rows ``0, 2, 4, ...``.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.errors import DimensionError

__all__ = [
    "Order",
    "ORDERS",
    "rank_grid",
    "row_major_rank_grid",
    "snake_rank_grid",
    "position_of_rank",
    "rank_of_position",
    "target_grid",
    "linearize",
    "is_sorted_grid",
    "validate_shape",
    "validate_grid",
]

Order = Literal["row_major", "snake"]

ORDERS: tuple[str, ...] = ("row_major", "snake")


def _check_side(side: int) -> None:
    if not isinstance(side, (int, np.integer)) or side < 1:
        raise DimensionError(f"mesh side must be a positive integer, got {side!r}")


def _mesh(rows: int, cols: int | None) -> tuple[int, int]:
    """Validated ``(rows, cols)``; ``cols`` defaults to ``rows`` (square)."""
    cols = rows if cols is None else cols
    _check_side(rows)
    _check_side(cols)
    return int(rows), int(cols)


def row_major_rank_grid(rows: int, *, cols: int | None = None) -> np.ndarray:
    """Rank grid for row-major order: cell ``(r, c)`` gets rank ``r*cols + c``."""
    rows, cols = _mesh(rows, cols)
    return np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)


def snake_rank_grid(rows: int, *, cols: int | None = None) -> np.ndarray:
    """Rank grid for snakelike order.

    0-based row ``r`` (paper row ``r+1``): ranks increase left-to-right when
    ``r`` is even (paper-odd rows) and right-to-left when ``r`` is odd.
    """
    grid = row_major_rank_grid(rows, cols=cols)
    grid[1::2] = grid[1::2, ::-1]
    return grid


def rank_grid(rows: int, order: Order, *, cols: int | None = None) -> np.ndarray:
    """Dispatch to :func:`row_major_rank_grid` or :func:`snake_rank_grid`."""
    if order == "row_major":
        return row_major_rank_grid(rows, cols=cols)
    if order == "snake":
        return snake_rank_grid(rows, cols=cols)
    raise DimensionError(f"unknown order {order!r}; expected one of {ORDERS}")


def position_of_rank(rank: int, side: int, order: Order) -> tuple[int, int]:
    """0-based cell ``(row, col)`` where the value of 0-based ``rank`` ends up.

    This is the paper's placement rule: the m-th smallest number (m = rank+1)
    appears in row ``floor((m-1)/side) + 1`` and, for the snakelike order, in
    column ``(m-1) mod side + 1`` on paper-odd rows and
    ``side - ((m-1) mod side)`` on paper-even rows.
    """
    _check_side(side)
    if not 0 <= rank < side * side:
        raise DimensionError(f"rank {rank} out of range for side {side}")
    row, offset = divmod(rank, side)
    if order == "row_major":
        return row, offset
    if order == "snake":
        return (row, offset) if row % 2 == 0 else (row, side - 1 - offset)
    raise DimensionError(f"unknown order {order!r}; expected one of {ORDERS}")


def rank_of_position(row: int, col: int, side: int, order: Order) -> int:
    """Inverse of :func:`position_of_rank` for a single cell."""
    _check_side(side)
    if not (0 <= row < side and 0 <= col < side):
        raise DimensionError(f"cell ({row}, {col}) out of range for side {side}")
    return int(rank_grid(side, order)[row, col])


def linearize(grid: np.ndarray, order: Order) -> np.ndarray:
    """Read a (batched) grid in target-order sequence.

    Returns an array shaped ``(..., rows*cols)`` whose last axis lists the
    grid contents in the order the target layout enumerates cells (rank 0
    first).  A grid is sorted exactly when this sequence is non-decreasing.
    """
    grid = np.asarray(grid)
    rows, cols = validate_shape(grid)
    if order == "row_major":
        seq = grid
    elif order == "snake":
        seq = grid.copy()
        seq[..., 1::2, :] = seq[..., 1::2, ::-1]
    else:
        raise DimensionError(f"unknown order {order!r}; expected one of {ORDERS}")
    return seq.reshape(*grid.shape[:-2], rows * cols)


def is_sorted_grid(grid: np.ndarray, order: Order) -> np.ndarray | bool:
    """Whether each grid in a batch is in the target order.

    Accepts shapes ``(rows, cols)`` (returns a bool) or
    ``(..., rows, cols)`` (returns a boolean array of the batch shape).
    Ties are allowed: the predicate asks only for a non-decreasing
    target-order traversal, which is the correct notion for the paper's 0-1
    matrices.
    """
    seq = linearize(grid, order)
    ok = (seq[..., 1:] >= seq[..., :-1]).all(axis=-1)
    if ok.ndim == 0:
        return bool(ok)
    return ok


def target_grid(
    values: np.ndarray, rows: int, order: Order, *, cols: int | None = None
) -> np.ndarray:
    """The unique sorted layout of ``values`` on a ``rows x cols`` mesh.

    ``values`` is a batch of grids ``(..., rows, cols)``, a batch of flat
    inputs ``(..., rows*cols)``, or any one array of ``rows*cols``
    elements; each batch element is sorted ascending and placed according
    to the order's rank grid, and the result is shaped
    ``(..., rows, cols)`` with the batch shape kept.
    """
    rows, cols = _mesh(rows, cols)
    values = np.asarray(values)
    n_cells = rows * cols
    if values.shape[-2:] == (rows, cols):
        batch = values.shape[:-2]
    elif values.ndim and values.shape[-1] == n_cells:
        batch = values.shape[:-1]
    elif values.size == n_cells:
        batch = ()
    else:
        raise DimensionError(
            f"values of shape {values.shape} cannot fill a {rows}x{cols} mesh"
        )
    flat = values.reshape(*batch, n_cells)
    return np.sort(flat, axis=-1)[..., rank_grid(rows, order, cols=cols)]


def validate_shape(grid: np.ndarray) -> tuple[int, int]:
    """Check that ``grid`` is a (batched) non-empty mesh; return
    ``(rows, cols)``."""
    grid = np.asarray(grid)
    if grid.ndim < 2:
        raise DimensionError(f"grid must be at least 2-D, got ndim={grid.ndim}")
    rows, cols = int(grid.shape[-2]), int(grid.shape[-1])
    if rows < 1 or cols < 1:
        raise DimensionError(f"empty mesh shape {(rows, cols)}")
    return rows, cols


def validate_grid(grid: np.ndarray) -> int:
    """Check that ``grid`` is a square (optionally batched) array; return side.

    For consumers defined on the paper's square mesh only (the
    processor-level machine, the 0-1 trackers); executors accept any
    ``rows x cols`` shape through :func:`validate_shape`.
    """
    rows, cols = validate_shape(grid)
    if rows != cols:
        raise DimensionError(
            f"grid must be square in its last two axes, got shape {np.shape(grid)}"
        )
    return rows
