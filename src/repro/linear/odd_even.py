"""The 1-D odd-even transposition sort (bubble sort) on a linear array.

This is the substrate the paper generalizes (Section 1): cells are numbered
``1 .. N`` left to right; at odd steps cells (1,2), (3,4), ... compare and
swap so the smaller value lands in the leftmost cell; at even steps cells
(2,3), (4,5), ... do the same.  Definition 1's *reverse* bubble sort stores
the smaller value in the rightmost cell instead.

.. deprecated::
    The sorter is now the registry family ``"odd_even"`` — a linear-topology
    schedule executed as a ``1 × N`` mesh by the shared backend/driver
    stack, so campaigns, verify, analysis, and bench all see it.
    :func:`sort_linear` and :func:`odd_even_sort_steps` remain as
    :class:`DeprecationWarning` shims routing through that stack; the shim
    tests in ``tests/schedules`` assert their outcomes are bit-identical to
    the historical pure-NumPy loop (including ``direction=-1``, the
    already-sorted fast path, and cap behaviour).

:func:`transposition_step` (the semantic spec of one step) and
:func:`worst_case_input` are pure functions and stay warning-free.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.errors import DimensionError

__all__ = [
    "transposition_step",
    "LinearSortOutcome",
    "sort_linear",
    "odd_even_sort_steps",
    "worst_case_input",
]


def transposition_step(
    array: np.ndarray, t: int, *, direction: int = 1
) -> None:
    """Apply paper step ``t`` (1-based) of the (reverse) bubble sort in place.

    Odd ``t`` pairs cells (1,2),(3,4),...; even ``t`` pairs (2,3),(4,5),....
    ``direction=+1`` stores the smaller value at the lower index (ordinary
    bubble sort); ``direction=-1`` stores it at the higher index (reverse
    bubble sort, Definition 1).
    """
    if t < 1:
        raise DimensionError(f"step times are 1-based, got {t}")
    if direction not in (1, -1):
        raise DimensionError(f"direction must be +1 or -1, got {direction}")
    n = array.shape[-1]
    offset = (t - 1) % 2
    p = (n - offset) // 2
    if p <= 0:
        return
    a = array[..., offset : offset + 2 * p : 2]
    b = array[..., offset + 1 : offset + 2 * p : 2]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    if direction == 1:
        a[...] = lo
        b[...] = hi
    else:
        a[...] = hi
        b[...] = lo


@dataclass
class LinearSortOutcome:
    """Result of :func:`sort_linear` (mirrors the 2-D ``SortOutcome``)."""

    steps: np.ndarray
    completed: np.ndarray
    final: np.ndarray
    max_steps: int

    def steps_scalar(self) -> int:
        if self.steps.ndim != 0:
            raise DimensionError("steps_scalar() on a batched outcome")
        return int(self.steps)


def _driver_sort_linear(
    array: np.ndarray,
    *,
    direction: int = 1,
    max_steps: int | None = None,
    raise_on_cap: bool = False,
) -> LinearSortOutcome:
    """Warning-free core of :func:`sort_linear`, routed through the
    registry's ``odd_even`` family on the vectorized backend.

    The ``1 × N`` execution reproduces the historical pure-NumPy loop bit
    for bit: the odd/even ``LineOp`` cycle equals :func:`transposition_step`
    at every ``t``, the driver records 0 steps for already-sorted inputs and
    -1 for capped ones, and :class:`~repro.errors.StepLimitExceeded` carries
    the same ``(max_steps, unfinished)``.  ``direction=-1`` runs the forward
    sort on the negated array — ``x -> -x`` is strictly monotone decreasing,
    so the trajectory is the exact mirror of the reverse bubble sort and
    negating the result restores it.
    """
    if direction not in (1, -1):
        raise DimensionError(f"direction must be +1 or -1, got {direction}")
    work = np.array(array, copy=True)
    if work.ndim < 1 or work.shape[-1] < 1:
        raise DimensionError(f"expected a non-empty (..., N) array, got {work.shape}")
    n = work.shape[-1]
    if max_steps is None:
        max_steps = n + 2
    batch_shape = work.shape[:-1]

    if n == 1:
        # A one-cell array is always sorted; the mesh stack requires at
        # least two cells, so keep the historical fast path inline.
        steps = np.zeros(batch_shape, dtype=np.int64)
        return LinearSortOutcome(
            steps=steps,
            completed=np.ones(batch_shape, dtype=bool),
            final=work,
            max_steps=max_steps,
        )

    from repro.backends import run_sort
    from repro.schedules import build_odd_even

    signed = work if direction == 1 else -work
    outcome = run_sort(
        "vectorized",
        build_odd_even(),
        signed.reshape(*batch_shape, 1, n),
        max_steps=max_steps,
        raise_on_cap=raise_on_cap,
    )
    final = outcome.final.reshape(*batch_shape, n)
    if direction == -1:
        final = -final
    return LinearSortOutcome(
        steps=np.asarray(outcome.steps),
        completed=np.asarray(outcome.completed),
        final=final,
        max_steps=max_steps,
    )


def sort_linear(
    array: np.ndarray,
    *,
    direction: int = 1,
    max_steps: int | None = None,
    raise_on_cap: bool = False,
) -> LinearSortOutcome:
    """Run the (reverse) odd-even transposition sort to completion.

    .. deprecated:: resolve the registry family ``"odd_even"`` through
       :func:`repro.core.runner.sort_grid` / :func:`repro.experiments.sample`
       on a ``(..., 1, N)`` mesh instead (identical values).

    ``steps`` records, per batch element, the first 1-based step after which
    the array is sorted (ascending for ``direction=+1``, descending for
    ``direction=-1``); 0 when already sorted.  The classical result proven in
    [Leighton 1992] guarantees completion within N steps, so the default cap
    is ``N + 2`` and hitting it indicates a bug.
    """
    warnings.warn(
        "repro.linear.odd_even.sort_linear is deprecated; run the registry "
        "family 'odd_even' through sort_grid/sample on a (..., 1, N) mesh "
        "(identical values)",
        DeprecationWarning,
        stacklevel=2,
    )
    return _driver_sort_linear(
        array, direction=direction, max_steps=max_steps, raise_on_cap=raise_on_cap
    )


def odd_even_sort_steps(array: np.ndarray, *, direction: int = 1) -> int:
    """Step count for a single 1-D input (convenience wrapper).

    .. deprecated:: see :func:`sort_linear`.
    """
    warnings.warn(
        "repro.linear.odd_even.odd_even_sort_steps is deprecated; run the "
        "registry family 'odd_even' through sort_grid/sample instead",
        DeprecationWarning,
        stacklevel=2,
    )
    arr = np.asarray(array)
    if arr.ndim != 1:
        raise DimensionError("odd_even_sort_steps expects a single 1-D array")
    return _driver_sort_linear(arr, direction=direction).steps_scalar()


def worst_case_input(n: int) -> np.ndarray:
    """An input on which the bubble sort needs close to the full N steps.

    Placing the smallest element in the rightmost cell forces at least
    ``N - 1`` steps, since the element moves at most one cell per step.
    """
    if n < 1:
        raise DimensionError(f"n must be positive, got {n}")
    out = np.arange(1, n + 1, dtype=np.int64)
    out[-1] = 0
    return out
