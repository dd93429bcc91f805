"""Schedules compiled for one ``rows x cols`` mesh, and their cache.

Compiling a schedule for a mesh lowers it to its flat comparator program
(:func:`repro.core.schedule.lower`, which refuses a schedule that is not a
comparator network on that mesh), and every executor steps that program;
the paper's square mesh is the case ``rows == cols`` and its linear array
the case ``rows == 1``.

Because the Monte-Carlo samplers call the same ``(algorithm, side)`` pair
hundreds of times, compilation is memoized in a small LRU cache keyed by
``(schedule, rows, cols)`` — schedules are frozen, value-hashable
dataclasses, so two structurally identical schedules share an entry.  Use
:func:`compiled_schedule` to hit the cache; constructing
:class:`CompiledSchedule` directly always compiles fresh.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.core.schedule import Schedule, _lower

__all__ = [
    "CompiledSchedule",
    "compiled_schedule",
    "schedule_cache_info",
    "schedule_cache_clear",
    "CacheInfo",
]

class CompiledSchedule:
    """A schedule specialized to a concrete ``rows x cols`` mesh.

    Compiling lowers the schedule once, eagerly, to :attr:`program`, its
    flat comparator program for this mesh (:func:`repro.core.schedule.lower`);
    :func:`compiled_schedule` memoises it per ``(schedule, rows, cols)``.
    ``lower`` refuses a schedule that is not a comparator network on the
    mesh — overlapping comparators, mesh bounds, the paper's even-column
    constraint for the wrap-around algorithms — so such a schedule never
    compiles.  Policy findings (:mod:`repro.analysis.schedule_check`) do
    not block compilation: executing a schedule the paper does not cover
    is how the verify layer demonstrates its breakage.
    """

    def __init__(self, schedule: Schedule, rows: int, cols: int):
        rows, cols = int(rows), int(cols)
        self.program, self._reverse = _lower(schedule, rows, cols)
        self.schedule = schedule
        self.rows, self.cols = rows, cols

    def __len__(self) -> int:
        return len(self.schedule.steps)

    @cached_property
    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        """Per comparator of :attr:`program`, the cells whose values go
        first and second to ``np.minimum``/``np.maximum`` (as ``intp``).

        A :class:`~repro.core.schedule.LineOp` takes its two cells in index
        order, so a reverse-bubble comparator takes ``(hi, lo)``; every
        other comparator takes ``(lo, hi)``.  NumPy returns the second
        operand on a tie, so the order decides which of two equal values
        with different bits (``-0.0`` and ``0.0``, NaN payloads) both
        cells keep.
        """
        lo, hi, _ = self.program
        reverse = np.zeros(lo.size, dtype=bool)
        for start, stop in self._reverse:
            reverse[start:stop] = True
        first = np.where(reverse, hi, lo).astype(np.intp)
        second = np.where(reverse, lo, hi).astype(np.intp)
        return first, second


class CacheInfo(NamedTuple):
    """Snapshot of the compiled-schedule cache statistics."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


_CACHE_MAXSIZE = 128
_cache: OrderedDict[tuple[Schedule, int, int], CompiledSchedule] = OrderedDict()
_cache_lock = threading.Lock()
_inflight: dict[tuple[Schedule, int, int], threading.Event] = {}
_hits = 0
_misses = 0


def compiled_schedule(schedule: Schedule, rows: int, cols: int) -> CompiledSchedule:
    """Compile ``schedule`` for a ``rows x cols`` mesh, reusing the LRU cache.

    Schedules hash by value (name, steps, order, parity requirement), so
    repeated Monte-Carlo calls with the same ``(algorithm, side)`` pair pay
    validation and lowering once.  Entries are evicted least
    recently used beyond {maxsize} cached compilations.

    Concurrent callers asking for the same uncached key share a single
    compilation: the first caller compiles while the rest wait on an
    in-flight marker, then take the cached result as a hit — each key is
    compiled (and counted as a miss) exactly once, no matter how many
    threads race for it.
    """
    global _hits, _misses
    key = (schedule, int(rows), int(cols))
    while True:
        with _cache_lock:
            cached = _cache.get(key)
            if cached is not None:
                _cache.move_to_end(key)
                _hits += 1
                return cached
            waiter = _inflight.get(key)
            if waiter is None:
                _inflight[key] = threading.Event()
                break
        # Another thread is compiling this key; wait for it, then re-check
        # the cache (or take over the compile if that thread failed).
        waiter.wait()
    try:
        compiled = CompiledSchedule(schedule, rows, cols)
    except BaseException:
        with _cache_lock:
            event = _inflight.pop(key)
        event.set()
        raise
    with _cache_lock:
        _misses += 1
        _cache[key] = compiled
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_MAXSIZE:
            _cache.popitem(last=False)
        event = _inflight.pop(key)
    event.set()
    return compiled


compiled_schedule.__doc__ = compiled_schedule.__doc__.format(maxsize=_CACHE_MAXSIZE)


def schedule_cache_info() -> CacheInfo:
    """Hit/miss/size statistics of the compiled-schedule cache."""
    with _cache_lock:
        return CacheInfo(_hits, _misses, _CACHE_MAXSIZE, len(_cache))


def schedule_cache_clear() -> None:
    """Drop every cached compilation and reset the statistics."""
    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0
