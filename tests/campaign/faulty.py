"""Fault-injecting statistics for campaign retry/crash/timing tests.

These must live in an importable module (not a test body, not a lambda)
because campaign workers receive the statistic by pickle.  Fault state is
a marker *file* — visible across process boundaries, unlike an in-memory
flag — whose path travels to workers through the environment (inherited
on fork).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

MARKER_ENV = "REPRO_TEST_FAULT_MARKER"

#: How long :func:`slow_statistic` sleeps per call.
SLOW_SECONDS = 0.1


def _marker() -> Path | None:
    path = os.environ.get(MARKER_ENV)
    return Path(path) if path else None


def flaky_statistic(grids: np.ndarray) -> np.ndarray:
    """Fails while the marker file exists, consuming it on first hit.

    The first shard attempt to run while the marker is present deletes it
    and raises; every later attempt (and every other shard) succeeds — the
    shape of a transient worker fault.  Deleting is the test, so exactly
    one attempt fails even when pool workers race for the marker.
    """
    marker = _marker()
    if marker is not None:
        try:
            marker.unlink()
        except FileNotFoundError:
            pass
        else:
            raise RuntimeError("injected transient fault")
    return np.asarray(grids.sum(axis=(-2, -1)), dtype=np.float64)


def broken_statistic(grids: np.ndarray) -> np.ndarray:
    """Fails unconditionally — the shape of a deterministic bug."""
    raise RuntimeError("injected permanent fault")


def slow_statistic(grids: np.ndarray) -> np.ndarray:
    """Sleeps :data:`SLOW_SECONDS` per call — the shape of a slow shard."""
    time.sleep(SLOW_SECONDS)
    return np.asarray(grids.sum(axis=(-2, -1)), dtype=np.float64)


def library_loaded_values(spec, index: int, trials: int) -> np.ndarray:
    """Shard values (a stand-in for the shard body) that report whether
    this process had loaded the shared C library, or decided that it
    cannot, when the shard started: 1.0 if so, else 0.0."""
    from repro import _clib

    return np.full(trials, float(_clib._library is not None))
