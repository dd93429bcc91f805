"""Backend registry: names in, :class:`~repro.backends.base.Backend` out.

The three built-in backends register lazily (imports happen on first
resolution, which keeps the layer import-light and cycle-free); downstream
code — and the test suite's cross-validation sweeps — discover them through
:func:`available_backends`.  Third-party backends plug in with
:func:`register_backend`.

``None`` resolves to the default, ``vectorized``: the lane-major runs that
step in C where the shared library of :mod:`repro._clib` builds, and in
NumPy otherwise.  Resolving a backend builds nothing; the library loads on
the first ``prepare``.
"""

from __future__ import annotations

from typing import Callable

from repro.backends.base import Backend
from repro.errors import DimensionError

__all__ = ["register_backend", "get_backend", "available_backends", "backend_name"]

_DEFAULT = "vectorized"


def _vectorized() -> Backend:
    from repro.backends.vectorized import VectorizedBackend

    return VectorizedBackend()


def _reference() -> Backend:
    from repro.backends.interpreter import ReferenceBackend

    return ReferenceBackend()


def _mesh() -> Backend:
    from repro.backends.interpreter import MeshBackend

    return MeshBackend()


_FACTORIES: dict[str, Callable[[], Backend]] = {
    "vectorized": _vectorized,
    "reference": _reference,
    "mesh": _mesh,
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


def get_backend(name: str | Backend | None = None) -> Backend:
    """Resolve a backend by registry name; ``None`` is the default
    (``vectorized``) and instances pass through."""
    if isinstance(name, Backend):
        return name
    if name is None:
        name = _DEFAULT
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise DimensionError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    if name not in _INSTANCES:
        _INSTANCES[name] = factory()
    return _INSTANCES[name]


def backend_name(name: str | None) -> str:
    """The name of the backend a registry name (or ``None``) resolves to.

    Options that are recorded or sent to worker processes take a name, not
    an instance: anything else raises :class:`~repro.errors.DimensionError`.
    """
    if name is not None and not isinstance(name, str):
        raise DimensionError(
            f"backend must be a registry name or None, got {type(name).__name__}"
        )
    return get_backend(name).name


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_FACTORIES)
