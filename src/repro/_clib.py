"""The one C library: its source, build cache and loader.

Three hot loops run in C, all built from :data:`_SOURCE` into one shared
library:

* ``repro_lanes`` steps a lane-major batch of ``int8``/``int16``/``int32``
  grids for the ``vectorized`` executor backend
  (:mod:`repro.backends.vectorized`): every comparator a branch-free
  min/max over contiguous lanes, with witness completion checks after
  every step.
* ``repro_planes`` steps the 0-1 certifier's ``uint64`` bit planes
  (:mod:`repro.analysis.semantics.checker`): per comparator ``a & b`` /
  ``a | b`` over every word, then per word the unsorted lanes
  ``OR_i(p[i] & ~p[i+1])``, ANDed into the never-sorted mask; it returns
  as soon as every lane is sorted.
* ``repro_shuffle`` draws the seeded Fisher-Yates inputs of
  :mod:`repro.randomness`: per grid it picks the swap targets through the
  NumPy bit generator's own ``next_uint32`` (its ``bitgen_t``, as NumPy's
  ``random_interval`` does), then shuffles a base row into the output, so
  values and stream position are those of ``Generator.permutation``.

This module belongs to no caller, so the certifier loads the library
without importing an executor.  The library is compiled with ``$CC``
(default ``cc``) once per (source, compiler version, machine, flags) into
``$XDG_CACHE_HOME/repro/native`` (default ``~/.cache``), written under a
temporary name and renamed into place.  Nothing is compiled or loaded at
import: the first :func:`load_library` call does it, and its outcome holds
for the process.  Without a working compiler it raises
:class:`~repro.errors.BackendUnavailableError` with the reason; the
``vectorized`` backend's lane runs and the certifier then step in NumPy
and the draws shuffle with ``Generator.permuted``.  Calling it is how to
check which engines a process uses.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import tempfile
import threading
from pathlib import Path

from repro.errors import BackendUnavailableError

__all__ = ["load_library"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
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

/* Steps 0 .. n-1 of the program on `cells` bit planes of `words` words
   each: plane i holds target position i of 64 0-1 inputs per word.  After
   every step the lanes unsorted now (a 1 right before a 0) are ANDed into
   `never`.  Returns n, or -(s + 1) when every lane is sorted after step s. */
#define BLOCK 64
int64_t repro_planes(uint64_t *p, int64_t words, int64_t cells,
                     const int64_t *lo, const int64_t *hi, const int64_t *off,
                     int64_t n, uint64_t *never) {
    for (int64_t s = 0; s < n; s++) {
        for (int64_t k = off[s]; k < off[s + 1]; k++) {
            uint64_t *restrict x = p + lo[k] * words;
            uint64_t *restrict y = p + hi[k] * words;
            for (int64_t w = 0; w < words; w++) {
                uint64_t u = x[w], v = y[w];
                x[w] = u & v;
                y[w] = u | v;
            }
        }
        uint64_t any = 0;
        for (int64_t w0 = 0; w0 < words; w0 += BLOCK) {
            int64_t m = words - w0 < BLOCK ? words - w0 : BLOCK;
            uint64_t bad[BLOCK] = {0};
            for (int64_t i = 0; i + 1 < cells; i++) {
                const uint64_t *a = p + i * words + w0, *b = a + words;
                for (int64_t w = 0; w < m; w++) bad[w] |= a[w] & ~b[w];
            }
            for (int64_t w = 0; w < m; w++) {
                never[w0 + w] &= bad[w];
                any |= bad[w];
            }
        }
        if (!any) return -(s + 1);
    }
    return n;
}

/* NumPy's bitgen_t (numpy/random/bitgen.h): a bit generator's state and
   its own draw functions. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

#define SHUFFLE(T)                                                            \
static void swap_##T(T *restrict row, const uint32_t *restrict target,        \
                     int64_t cells) {                                          \
    for (int64_t i = cells - 1; i > 0; i--) {                                  \
        T u = row[i]; row[i] = row[target[i]]; row[target[i]] = u;             \
    }                                                                          \
}

SHUFFLE(uint8_t)
SHUFFLE(uint16_t)
SHUFFLE(uint32_t)
SHUFFLE(uint64_t)

/* One Fisher-Yates shuffle of the `cells` items of `base` (each `width`
   bytes) into every one of the `grids` rows of `out`, drawn from `bg` as
   Generator.permutation draws: for i = cells-1 .. 1 the target j is
   NumPy's random_interval(i) for bounds below 2^32, a next_uint32 word
   masked to the smallest all-ones mask >= i and redrawn while j > i.  A
   grid's targets are all drawn before its swaps.  Returns 0, -1 for a
   width it does not swap, or -2 when the targets cannot be allocated. */
int64_t repro_shuffle(bitgen_t *bg, void *out, const void *base,
                      int64_t width, int64_t grids, int64_t cells) {
    if (width != 1 && width != 2 && width != 4 && width != 8) return -1;
    uint32_t *target = malloc(cells * sizeof(uint32_t));
    if (!target) return -2;
    char *row = out;
    for (int64_t g = 0; g < grids; g++, row += cells * width) {
        uint32_t i = (uint32_t)(cells - 1);
        while (i > 0) {
            uint32_t j = bg->next_uint32(bg->state) & (0xffffffffu >> __builtin_clz(i));
            target[i] = j;
            i -= j <= i;
        }
        memcpy(row, base, cells * width);
        switch (width) {
        case 1: swap_uint8_t((uint8_t *)row, target, cells); break;
        case 2: swap_uint16_t((uint16_t *)row, target, cells); break;
        case 4: swap_uint32_t((uint32_t *)row, target, cells); break;
        case 8: swap_uint64_t((uint64_t *)row, target, cells); break;
        }
    }
    free(target);
    return 0;
}
"""

_FLAGS = ("-O3", "-fPIC", "-shared")

_library: ctypes.CDLL | BackendUnavailableError | None = None
_library_lock = threading.Lock()


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro" / "native"


def _build() -> ctypes.CDLL:
    """Compile (or reuse the cached build of) the library and load it."""
    # Imported here: every ``import repro`` imports this module (through
    # repro.randomness), and only a build runs the compiler.
    import subprocess

    compiler = shlex.split(os.environ.get("CC") or "cc")
    try:
        version = subprocess.run(
            [*compiler, "--version"], capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise BackendUnavailableError(
            f"native library unavailable: compiler {' '.join(compiler)!r} "
            f"does not run ({exc})"
        ) from exc
    # The machine is part of the key: a cache shared across architectures
    # must not hand one of them a library it cannot load.
    key = hashlib.sha256(
        "\0".join((_SOURCE, version, platform.machine(), *_FLAGS)).encode()
    ).hexdigest()[:16]
    name = f"clib-{key}.so"
    try:
        # Inside the try: without $HOME or a passwd entry, Path.home()
        # raises RuntimeError, which must mean "unavailable", not a crash.
        library = _cache_dir() / name
        if not library.exists():
            library.parent.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=library.parent) as tmp:
                source, built = Path(tmp) / "clib.c", Path(tmp) / "clib.so"
                source.write_text(_SOURCE)
                proc = subprocess.run(
                    [*compiler, *_FLAGS, "-o", str(built), str(source)],
                    capture_output=True, text=True, timeout=300,
                )
                if proc.returncode != 0:
                    raise BackendUnavailableError(
                        "native library unavailable: it failed to compile: "
                        + (proc.stderr.strip() or f"exit {proc.returncode}")[-2000:]
                    )
                # Readers only ever see a complete library.
                os.replace(built, library)
        lib = ctypes.CDLL(str(library))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        raise BackendUnavailableError(
            f"native library unavailable: cannot build or load {name} ({exc})"
        ) from exc
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.repro_lanes.argtypes = [i64, ptr, ptr, i64, i64, ptr, ptr, ptr, i64, i64, i64,
                                ptr, ptr, ptr, ptr, ptr]
    lib.repro_lanes.restype = i64
    lib.repro_planes.argtypes = [ptr, i64, i64, ptr, ptr, ptr, i64, ptr]
    lib.repro_planes.restype = i64
    lib.repro_shuffle.argtypes = [ptr, ptr, ptr, i64, i64, i64]
    lib.repro_shuffle.restype = i64
    return lib


def load_library() -> ctypes.CDLL:
    """The loaded library, built on first call.

    Its entry points are ``repro_lanes``, ``repro_planes`` and
    ``repro_shuffle``.  The outcome is decided once per process: a build
    that failed raises the same
    :class:`~repro.errors.BackendUnavailableError` on every call.
    """
    global _library
    with _library_lock:
        if _library is None:
            try:
                _library = _build()
            except BackendUnavailableError as exc:
                _library = exc
    if isinstance(_library, BackendUnavailableError):
        raise _library
    return _library
