"""Native lane-major backend: one C call sorts a whole batch.

Savari's theorems are about step counts over random inputs, so every paper
number is a batched Monte-Carlo sort.  This backend runs that sort as a
compiled loop instead of one NumPy dispatch per kernel and per completion
check:

* **Program.**  Each ``(schedule, rows, cols)`` is lowered once to a flat
  comparator program (:attr:`CompiledSchedule.program`): ``lo``/``hi`` flat
  cell indices plus one offset per step.
* **Layout.**  The batch is stored lane-major, ``(cells, batch)``, in the
  narrowest of ``int8``/``int16``/``int32`` that holds its min..max, so
  every comparator is a branch-free min/max over contiguous lanes, which
  the compiler vectorizes.  Results go back in the caller's dtype.  Float
  grids and values outside ``int32`` run on the ``vectorized`` kernels.
* **One entry point.**  ``repro_lanes`` runs steps ``t0 .. t0+n-1``.  Given
  a lane-major target it also checks completion after every step, the way
  :class:`~repro.backends.vectorized.ArrayRun` does: each live lane tests
  one witness cell, only a lane whose witness matches gets a full
  comparison, which records its step count (and moves the lane behind the
  live ones) or moves its witness.  :meth:`NativeRun.apply_step`,
  :meth:`NativeRun.done_mask` and the fused
  :meth:`NativeRun.sort_to_completion` all call it.
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
from typing import Any, Callable

import numpy as np

from repro.backends.base import Backend, ExecutorRun, StepStats
from repro.backends.compile import CompiledSchedule, compiled_schedule
from repro.core.orders import Order, rank_grid, validate_shape
from repro.core.schedule import Schedule
from repro.errors import BackendUnavailableError, DimensionError

__all__ = ["NativeBackend", "NativeRun", "load_kernel", "lane_dtype", "COUNTERS"]

#: Names of the counters the C loop accumulates, in its output order.
COUNTERS = (
    "native.comparisons",
    "native.witness_checks",
    "native.full_checks",
    "native.kernel_ns",
    "native.completion_ns",
)

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
# Each lane type with the value range it holds.
_LANE_DTYPES = tuple(
    (np.dtype(t), int(np.iinfo(t).min), int(np.iinfo(t).max))
    for t in (np.int8, np.int16, np.int32)
)

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


def lane_dtype(grid: np.ndarray) -> np.dtype | None:
    """The narrowest lane type holding every value of ``grid``, or ``None``
    when the grid must run on the ``vectorized`` kernels (floats, other
    non-integer dtypes, values outside ``int32``, empty batches)."""
    if grid.dtype == bool:
        return _LANE_DTYPES[0][0]
    if grid.dtype.kind not in "iu" or grid.size == 0:
        return None
    lo, hi = int(grid.min()), int(grid.max())
    for dtype, least, most in _LANE_DTYPES:
        if least <= lo and hi <= most:
            return dtype
    return None


class NativeRun(ExecutorRun):
    """Run state of the native backend: the lane-major batch and its lanes.

    The C loop reads and updates the per-lane bookkeeping.  Slot ``b`` of
    the lanes holds grid ``lane[b]``; sorted grids move behind the live
    slots, and every grid handed out is put back in the caller's batch
    order and dtype.
    """

    def __init__(
        self,
        kernel: Callable[..., int],
        compiled: CompiledSchedule,
        lanes: np.ndarray,
        dtype: np.dtype,
        batch_shape: tuple[int, ...],
        order: Order,
    ):
        self.compiled = compiled
        self.order = order
        self.rows, self.cols = compiled.rows, compiled.cols
        self.batch_shape = batch_shape
        self.cycle_len = len(compiled)
        self._kernel = kernel
        self._lanes = lanes
        self._dtype = dtype
        cells, n = lanes.shape
        # One buffer for the per-lane bookkeeping: the live-slot count,
        # slot -> grid ids, witness cells, step counts (per grid) and the
        # counters.  It lives as long as the run and never moves, so the
        # kernel's pointer arguments are read once.
        self._state = state = np.zeros(1 + 3 * n + len(COUNTERS), dtype=np.int64)
        state[0] = n
        self._lane = state[1 : 1 + n]
        self._lane[:] = np.arange(n)
        self._witness = state[1 + n : 1 + 2 * n]
        self._steps = state[1 + 2 * n : 1 + 3 * n]
        self._steps[:] = -1
        self._counters = state[1 + 3 * n :]
        # Built by the first completion check: fixed-step runs never pay
        # for sorting the batch.
        self._target: np.ndarray | None = None
        self._t = 0  # the last step applied
        lo, hi, off = compiled.program
        self._head = (
            lanes.itemsize, lanes.ctypes.data, None, n, cells,
            lo.ctypes.data, hi.ctypes.data, off.ctypes.data, len(off) - 1,
        )
        base = state.ctypes.data
        self._tail = tuple(base + 8 * k for k in (0, 1, 1 + n, 1 + 2 * n, 1 + 3 * n))

    def _run(self, t0: int, n: int, target: np.ndarray | None) -> int:
        """Apply ``n`` steps from paper time ``t0``; with ``target``, check
        completion before the first step and after each one."""
        if t0 < 1:
            # The C loop indexes step ``(t0 + s - 1) % cycle``: a time
            # below 1 would read before the program's offsets.
            raise DimensionError(f"step times are 1-based, got {t0}")
        head = self._head
        if target is not None:
            head = (*head[:2], target.ctypes.data, *head[3:])
        ran = self._kernel(*head, t0, n, *self._tail)
        self._t = t0 + ran - 1
        return ran

    def _completion_target(self) -> np.ndarray:
        if self._target is None:
            # Compare-exchange only permutes each grid's values, and no
            # grid has changed slots yet (that needs a target), so column
            # ``g`` of the lanes is grid ``g`` in some order.
            ranks = rank_grid(self.rows, self.order, cols=self.cols).ravel()
            self._target = np.sort(self._lanes, axis=0)[ranks]
        return self._target

    def apply_step(self, t: int, *, want_swaps: bool = False) -> StepStats:
        if not want_swaps:
            self._run(t, 1, None)
            return StepStats()
        before = self._lanes.copy()
        self._run(t, 1, None)
        return StepStats(swaps=int(np.count_nonzero(before != self._lanes)) // 2)

    def done_mask(self) -> np.ndarray:
        self._run(self._t + 1, 0, self._completion_target())
        return (self._steps >= 0).reshape(self.batch_shape)

    def sort_to_completion(
        self, max_steps: int, step: Callable[[int], Any] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        if step is not None:
            return super().sort_to_completion(max_steps, step)
        self._run(self._t + 1, max(0, max_steps - self._t), self._completion_target())
        steps = self._steps.reshape(self.batch_shape).copy()
        return steps, steps >= 0

    def materialize(self) -> np.ndarray:
        cells, n = self._lanes.shape
        # A fresh C-ordered buffer: never a view of the lanes, and
        # consumers that hash or serialise it need no second copy.
        grids = np.empty((n, cells), dtype=self._dtype)
        if self._state[0] == n:
            # No grid has retired, so no lane has moved.
            grids[...] = self._lanes.T
        else:
            grids[self._lane] = self._lanes.T
        return grids.reshape(self.batch_shape + (self.rows, self.cols))

    def counters(self) -> dict[str, int]:
        return dict(zip(COUNTERS, self._counters.tolist()))


class NativeBackend(Backend):
    """The compiled lane-major executor for any ``rows x cols`` mesh.

    Construction loads the kernel, so resolving the backend fails with
    :class:`~repro.errors.BackendUnavailableError` where it cannot build.
    """

    name = "native"
    # Observed runs step on ``vectorized`` (see :meth:`stepping`), so they
    # report its label.
    event_executor = "engine"
    supports_rect = True

    def __init__(self) -> None:
        self._kernel = load_kernel()
        from repro.backends.vectorized import VectorizedBackend

        self._fallback = VectorizedBackend()

    def stepping(self) -> Backend:
        # Every step event carries the batch in the caller's layout: a
        # transposing copy out of the lanes per step, which costs more
        # than the ``vectorized`` kernels' step does.
        return self._fallback

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> ExecutorRun:
        arr = np.asarray(grid)
        rows, cols = validate_shape(arr)
        narrow = lane_dtype(arr)
        if narrow is None:
            return self._fallback.prepare(schedule, arr)
        batch_shape = tuple(arr.shape[:-2])
        n, cells = int(np.prod(batch_shape, dtype=np.int64)), rows * cols
        # A fresh buffer, filled by assignment: the lanes never alias the
        # caller's array, whatever its dtype and layout.  Narrowing first
        # makes the transposing copy move fewer bytes.
        lanes = np.empty((cells, n), dtype=narrow)
        lanes[...] = arr.reshape(n, cells).astype(narrow).T
        return NativeRun(
            self._kernel, compiled_schedule(schedule, rows, cols), lanes,
            arr.dtype, batch_shape, schedule.order,
        )
