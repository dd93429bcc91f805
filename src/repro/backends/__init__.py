"""Unified executor backend layer.

One driver (:mod:`repro.backends.driver`) runs any registered backend —
``"vectorized"``, ``"reference"``, ``"mesh"``, ``"native"`` — over one
schedule compiler with an LRU compilation cache, producing one
:class:`SortOutcome` type.  The default backend
(:func:`repro.schedules.execution_backend`) is ``"native"`` (one C call per
batch) where a C compiler builds it, else ``"vectorized"``.
Every mesh is ``rows x cols``; a square mesh is the case ``rows == cols``.
The single-grid entry point :func:`repro.mesh.machine.mesh_sort` runs over
this layer too.
"""

from repro.backends.base import (
    Backend,
    ExecutorRun,
    SortOutcome,
    step_cap,
)
from repro.backends.compile import (
    CacheInfo,
    CompiledSchedule,
    compiled_schedule,
    schedule_cache_clear,
    schedule_cache_info,
)
from repro.backends.driver import iter_run, run_sort, run_steps
from repro.backends.registry import (
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "Backend",
    "ExecutorRun",
    "SortOutcome",
    "step_cap",
    "CacheInfo",
    "CompiledSchedule",
    "compiled_schedule",
    "schedule_cache_clear",
    "schedule_cache_info",
    "run_sort",
    "run_steps",
    "iter_run",
    "get_backend",
    "register_backend",
    "available_backends",
]
