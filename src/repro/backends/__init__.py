"""Unified executor backend layer.

One driver (:mod:`repro.backends.driver`) runs any registered backend —
``"vectorized"``, ``"reference"``, ``"mesh"`` — over one schedule compiler
with an LRU compilation cache, producing one :class:`SortOutcome` type.
The default backend (``get_backend(None)``) is ``"vectorized"``: lane-major
batch runs that step in one C call per batch where the shared library of
:mod:`repro._clib` builds, and in NumPy otherwise.
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
    backend_name,
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
    "backend_name",
]
