"""Backend registry: resolution, caching, registration, error paths."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.backends import (
    Backend,
    available_backends,
    backend_name,
    get_backend,
    register_backend,
)
from repro.backends import registry as registry_module
from repro.errors import DimensionError


def test_builtin_backends_are_registered():
    builtins = ("vectorized", "reference", "mesh")
    assert tuple(registry_module._FACTORIES) == builtins
    assert available_backends() == builtins


def test_none_is_the_vectorized_default():
    assert get_backend(None) is get_backend() is get_backend("vectorized")
    assert backend_name(None) == "vectorized"


def test_listing_and_resolving_backends_load_no_library():
    """The C library loads on the first lane run's ``prepare``, never when
    backends are listed or resolved."""
    code = (
        "import repro._clib as clib\n"
        "from repro.backends import available_backends, get_backend\n"
        "names = available_backends()\n"
        "get_backend(None)\n"
        "for name in names:\n"
        "    get_backend(name)\n"
        "assert clib._library is None, clib._library\n"
        "print('NO-LIBRARY')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "NO-LIBRARY" in result.stdout


@pytest.mark.parametrize("name", ["vectorized", "reference", "mesh"])
def test_builtin_backends_resolve(name):
    be = get_backend(name)
    assert isinstance(be, Backend)
    assert be.name == name


def test_resolution_is_cached():
    assert get_backend("vectorized") is get_backend("vectorized")


def test_backend_instances_pass_through():
    be = get_backend("mesh")
    assert get_backend(be) is be


def test_unknown_backend_lists_available():
    with pytest.raises(DimensionError, match="unknown backend 'gpu'"):
        get_backend("gpu")
    try:
        get_backend("gpu")
    except DimensionError as exc:
        assert "vectorized" in str(exc)


def test_duplicate_registration_raises():
    with pytest.raises(DimensionError, match="already registered"):
        register_backend("vectorized", lambda: get_backend("vectorized"))


def test_register_and_shadow_custom_backend():
    calls = []

    def factory() -> Backend:
        calls.append(1)
        return get_backend("vectorized")

    try:
        register_backend("test-double", factory)
        assert "test-double" in available_backends()
        assert get_backend("test-double") is get_backend("vectorized")
        assert get_backend("test-double") is get_backend("vectorized")
        assert len(calls) == 1  # factory runs once, then the instance is cached

        register_backend("test-double", lambda: get_backend("mesh"), replace=True)
        assert get_backend("test-double") is get_backend("mesh")
    finally:
        registry_module._FACTORIES.pop("test-double", None)
        registry_module._INSTANCES.pop("test-double", None)
    assert "test-double" not in available_backends()
