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

from repro._lazy import lazy_exports

_EXPORTS = {
    "Backend": "repro.backends.base",
    "ExecutorRun": "repro.backends.base",
    "SortOutcome": "repro.backends.base",
    "step_cap": "repro.backends.base",
    "CacheInfo": "repro.backends.compile",
    "CompiledSchedule": "repro.backends.compile",
    "compiled_schedule": "repro.backends.compile",
    "schedule_cache_clear": "repro.backends.compile",
    "schedule_cache_info": "repro.backends.compile",
    "run_sort": "repro.backends.driver",
    "run_steps": "repro.backends.driver",
    "iter_run": "repro.backends.driver",
    "get_backend": "repro.backends.registry",
    "register_backend": "repro.backends.registry",
    "available_backends": "repro.backends.registry",
    "backend_name": "repro.backends.registry",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
