"""Backend registry: names in, :class:`~repro.backends.base.Backend` out.

The four built-in backends register lazily (imports happen on first
resolution, which keeps the layer import-light and cycle-free); downstream
code — and the test suite's cross-validation sweeps — discover them through
:func:`available_backends`.  Third-party backends plug in with
:func:`register_backend`.

A backend whose factory raises
:class:`~repro.errors.BackendUnavailableError` (``native`` without a C
compiler) stays registered but is left out of :func:`available_backends`,
so the default (:func:`repro.schedules.execution_backend`) is ``native``
where it builds, else ``vectorized``.
"""

from __future__ import annotations

from typing import Callable

from repro.backends.base import Backend
from repro.errors import BackendUnavailableError, DimensionError

__all__ = ["register_backend", "get_backend", "available_backends"]


def _vectorized() -> Backend:
    from repro.backends.vectorized import VectorizedBackend

    return VectorizedBackend()


def _reference() -> Backend:
    from repro.backends.interpreter import ReferenceBackend

    return ReferenceBackend()


def _mesh() -> Backend:
    from repro.backends.interpreter import MeshBackend

    return MeshBackend()


def _native() -> Backend:
    from repro.backends.native import NativeBackend

    return NativeBackend()


_FACTORIES: dict[str, Callable[[], Backend]] = {
    "vectorized": _vectorized,
    "reference": _reference,
    "mesh": _mesh,
    "native": _native,
}
_INSTANCES: dict[str, Backend] = {}


def register_backend(
    name: str, factory: Callable[[], Backend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called at most once, on first :func:`get_backend`
    resolution.  Re-registering an existing name raises unless ``replace``
    is given (the built-ins can be shadowed deliberately, e.g. by a test
    double).
    """
    if name in _FACTORIES and not replace:
        raise DimensionError(
            f"backend {name!r} is already registered; pass replace=True to shadow it"
        )
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def get_backend(name: str | Backend) -> Backend:
    """Resolve a backend by registry name (instances pass through).

    Raises :class:`~repro.errors.BackendUnavailableError`, with the reason,
    for a registered backend that cannot run here.
    """
    if isinstance(name, Backend):
        return name
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise DimensionError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    if name not in _INSTANCES:
        _INSTANCES[name] = factory()
    return _INSTANCES[name]


def _loads(name: str) -> bool:
    try:
        get_backend(name)
    except BackendUnavailableError:
        return False
    return True


def available_backends() -> tuple[str, ...]:
    """Registered backends that run here, in registration order.

    Resolves each one, so the first call builds ``native``.
    """
    return tuple(name for name in _FACTORIES if _loads(name))

