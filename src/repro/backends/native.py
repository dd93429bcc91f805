"""Native lane-major backend: one C call sorts a whole batch.

Savari's theorems are about step counts over random inputs, so every paper
number is a batched Monte-Carlo sort.  This backend runs that sort as a
compiled loop instead of one NumPy dispatch per step and per completion
check.  Its runs are the :class:`~repro.backends.vectorized.LaneRun` runs, the
lane-major runs of the ``vectorized`` backend, with a C engine:

* **Engine.**  ``repro_lanes`` runs steps ``t0 .. t0+n-1`` on ``int8``/
  ``int16``/``int32`` lanes, every comparator a branch-free min/max over
  contiguous lanes, which the compiler vectorizes.  Given a lane-major
  target it also checks completion after every step with the run's
  witnesses, and it updates the run's state buffer and counters
  (:data:`~repro.backends.vectorized.COUNTERS`).  Lanes it does not cover
  (floats, values outside ``int32``, empty batches) step on the run's
  NumPy engine, which keeps the same contract.
* **Build.**  The library is compiled with ``$CC`` (default ``cc``) once
  per (source, compiler version, machine, flags) into
  ``$XDG_CACHE_HOME/repro/native`` (default ``~/.cache``), written under a
  temporary name and renamed into place.  Nothing is compiled or loaded at
  import; the first resolution of the backend does it.  Without a working
  compiler the backend is unavailable: the default
  (:func:`repro.schedules.execution_backend`) falls back to ``vectorized``
  and an explicit ``get_backend("native")`` raises
  :class:`~repro.errors.BackendUnavailableError` with the reason.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shlex
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable

import numpy as np

from repro.backends.base import Backend
from repro.backends.compile import compiled_schedule
from repro.backends.vectorized import LaneRun
from repro.core.orders import validate_shape
from repro.core.schedule import Schedule
from repro.errors import BackendUnavailableError

__all__ = ["NativeBackend", "load_kernel"]

_SOURCE = r"""
#include <stdint.h>
#include <time.h>

static int64_t now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

#define LANES(T)                                                              \
static void cx_##T(T *restrict x, T *restrict y, int64_t live) {              \
    for (int64_t b = 0; b < live; b++) {                                       \
        T u = x[b], v = y[b];                                                  \
        x[b] = u < v ? u : v;                                                  \
        y[b] = u < v ? v : u;                                                  \
    }                                                                          \
}                                                                              \
static int64_t run_##T(T *a, const T *want, int64_t B, int64_t cells,         \
                       const int32_t *lo, const int32_t *hi,                   \
                       const int64_t *off, int64_t cycle, int64_t t0,          \
                       int64_t n, int64_t *live, int64_t *lane, int64_t *wit,  \
                       int64_t *steps, int64_t *ctr) {                         \
    int64_t s = 0, clock = now_ns(), t;                                        \
    for (;;) {                                                                 \
        for (int64_t b = want ? *live - 1 : -1; b >= 0; b--) {                 \
            int64_t c = wit[b], g = lane[b], k, last;                         \
            ctr[1]++;                                                          \
            if (a[c * B + b] != want[c * B + g]) continue;                     \
            ctr[2]++;                                                          \
            for (k = 1; k < cells; k++) {                                      \
                c = c + 1 == cells ? 0 : c + 1;                                \
                if (a[c * B + b] != want[c * B + g]) break;                    \
            }                                                                  \
            if (k < cells) { wit[b] = c; continue; }                           \
            steps[g] = t0 + s - 1;                                             \
            last = --*live;                                                    \
            for (c = 0; c < cells; c++) {                                      \
                T u = a[c * B + b]; a[c * B + b] = a[c * B + last];            \
                a[c * B + last] = u;                                           \
            }                                                                  \
            lane[b] = lane[last]; lane[last] = g; wit[b] = wit[last];          \
        }                                                                      \
        if (want) { t = now_ns(); ctr[4] += t - clock; clock = t; }            \
        if (s == n || *live == 0) return s;                                    \
        int64_t step = (t0 + s - 1) % cycle;                                   \
        for (int64_t k = off[step]; k < off[step + 1]; k++)                    \
            cx_##T(a + lo[k] * B, a + hi[k] * B, *live);                       \
        ctr[0] += (off[step + 1] - off[step]) * *live;                         \
        s++;                                                                   \
        t = now_ns(); ctr[3] += t - clock; clock = t;                          \
    }                                                                          \
}

LANES(int8_t)
LANES(int16_t)
LANES(int32_t)

int64_t repro_lanes(int64_t width, void *a, const void *want, int64_t B,
                    int64_t cells, const int32_t *lo, const int32_t *hi,
                    const int64_t *off, int64_t cycle, int64_t t0, int64_t n,
                    int64_t *live, int64_t *lane, int64_t *wit, int64_t *steps,
                    int64_t *ctr) {
    switch (width) {
    case 1: return run_int8_t(a, want, B, cells, lo, hi, off, cycle, t0, n,
                              live, lane, wit, steps, ctr);
    case 2: return run_int16_t(a, want, B, cells, lo, hi, off, cycle, t0, n,
                               live, lane, wit, steps, ctr);
    case 4: return run_int32_t(a, want, B, cells, lo, hi, off, cycle, t0, n,
                               live, lane, wit, steps, ctr);
    }
    return -1;
}
"""

_FLAGS = ("-O3", "-fPIC", "-shared")

_kernel: Callable[..., int] | BackendUnavailableError | None = None
_kernel_lock = threading.Lock()


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro" / "native"


def _build() -> Callable[..., int]:
    """Compile (or reuse the cached build of) the kernel and load it."""
    import ctypes

    compiler = shlex.split(os.environ.get("CC") or "cc")
    try:
        version = subprocess.run(
            [*compiler, "--version"], capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise BackendUnavailableError(
            f"native backend unavailable: compiler {' '.join(compiler)!r} "
            f"does not run ({exc})"
        ) from exc
    # The machine is part of the key: a cache shared across architectures
    # must not hand one of them a library it cannot load.
    key = hashlib.sha256(
        "\0".join((_SOURCE, version, platform.machine(), *_FLAGS)).encode()
    ).hexdigest()[:16]
    name = f"lanes-{key}.so"
    try:
        # Inside the try: without $HOME or a passwd entry, Path.home()
        # raises RuntimeError, which must mean "unavailable", not a crash.
        library = _cache_dir() / name
        if not library.exists():
            library.parent.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=library.parent) as tmp:
                source, built = Path(tmp) / "lanes.c", Path(tmp) / "lanes.so"
                source.write_text(_SOURCE)
                proc = subprocess.run(
                    [*compiler, *_FLAGS, "-o", str(built), str(source)],
                    capture_output=True, text=True, timeout=300,
                )
                if proc.returncode != 0:
                    raise BackendUnavailableError(
                        "native backend unavailable: the kernel failed to compile: "
                        + (proc.stderr.strip() or f"exit {proc.returncode}")[-2000:]
                    )
                # Readers only ever see a complete library.
                os.replace(built, library)
        fn = ctypes.CDLL(str(library)).repro_lanes
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        raise BackendUnavailableError(
            f"native backend unavailable: cannot build or load {name} ({exc})"
        ) from exc
    fn.argtypes = [ctypes.c_int64, *[ctypes.c_void_p] * 2, *[ctypes.c_int64] * 2,
                   *[ctypes.c_void_p] * 3, *[ctypes.c_int64] * 3,
                   *[ctypes.c_void_p] * 5]
    fn.restype = ctypes.c_int64
    return fn


def load_kernel() -> Callable[..., int]:
    """The loaded ``repro_lanes`` entry point, built on first call.

    The outcome is decided once per process: a build that failed raises
    the same :class:`~repro.errors.BackendUnavailableError` on every call.
    """
    global _kernel
    with _kernel_lock:
        if _kernel is None:
            try:
                _kernel = _build()
            except BackendUnavailableError as exc:
                _kernel = exc
    if isinstance(_kernel, BackendUnavailableError):
        raise _kernel
    return _kernel


class NativeBackend(Backend):
    """The compiled lane-major executor for any ``rows x cols`` mesh.

    Construction loads the kernel, so resolving the backend fails with
    :class:`~repro.errors.BackendUnavailableError` where it cannot build.
    """

    name = "native"
    # The event stream is the ``vectorized`` backend's, step for step, so
    # the two share its label and their traces compare directly.
    event_executor = "engine"
    supports_rect = True

    def __init__(self) -> None:
        self._kernel = load_kernel()

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> LaneRun:
        arr = np.asarray(grid)
        rows, cols = validate_shape(arr)
        return LaneRun(
            compiled_schedule(schedule, rows, cols), arr, schedule.order, self._kernel
        )
