"""A fixed reference computation that measures how fast the host runs now.

The benchmark's hosts are shared: for minutes at a time the whole machine
runs a third slower, or more, and every timing moves with it.  A measured
run therefore times this computation before and after every pass, and
``wall_rel`` divides the pass time by the mean of the two.  A slowdown of
the host moves both alike and cancels; a change to the program moves only
the pass.

The computation imports nothing from the program, so no change to the
program can move it.  It mixes, in about equal parts, the kinds of work
the workloads do: interpreted Python, NumPy calls on small arrays (where
dispatch dominates), gather/scatter compare-exchange steps on a 1 MB batch
of 0-1 rows (as in the certifier), and strided compare-exchange on a 2 MB
batch of grids (as in the mesh kernels).  It takes about 0.2 s.
"""

from __future__ import annotations

import time

import numpy as np

perf_counter = time.perf_counter

_rng = np.random.default_rng(0)
_SMALL = np.arange(4096, dtype=np.int64)
_ROWS = _rng.integers(0, 2, size=(1 << 16, 16), dtype=np.int8)
_ODD_EVEN = (np.arange(0, 15, 2), np.arange(1, 15, 2))
_GRIDS = _rng.integers(0, 1 << 30, size=(256, 32, 32))


def _interpreted() -> int:
    total = 0
    for i in range(500_000):
        total += i * i % 7
    return total


def _small_arrays() -> None:
    low, high = _SMALL.copy(), _SMALL[::-1].copy()
    for _ in range(10_000):
        np.minimum(low, high, out=low)
        np.maximum(low, high, out=high)


def _gather_scatter() -> None:
    rows = _ROWS.copy()
    for step in range(10):
        low = _ODD_EVEN[step % 2]
        high = low + 1
        a, b = rows[:, low], rows[:, high]
        rows[:, low] = np.minimum(a, b)
        rows[:, high] = np.maximum(a, b)
        np.all(rows[:, 1:] >= rows[:, :-1], axis=1)


def _strided_grids() -> None:
    grids = _GRIDS.copy()
    for _ in range(48):
        a, b = grids[:, :, 0::2], grids[:, :, 1::2]
        low, high = np.minimum(a, b), np.maximum(a, b)
        grids[:, :, 0::2] = low
        grids[:, :, 1::2] = high
        (grids[:, :, 1:] >= grids[:, :, :-1]).all(axis=(1, 2))


def reference_pass() -> float:
    """Run the reference computation once; returns its wall time."""
    start = perf_counter()
    _interpreted()
    _small_arrays()
    _gather_scatter()
    _strided_grids()
    return perf_counter() - start
