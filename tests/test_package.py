"""Package-level tests: imports, exports, version, randomness utilities."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.errors import DimensionError
from repro.randomness import (
    as_generator,
    paper_zero_count,
    random_permutation_grid,
    random_zero_one_grid,
    spawn_generators,
)


def _submodules() -> list[str]:
    """Every module of the package, found by walking it, so a leftover
    import of a deleted module fails here.

    ``__main__`` modules are skipped: they are ``python -m`` scripts rather
    than library modules, and a script is free to do its work on import.
    """
    return [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")
    ]


SUBMODULES = ["repro", *_submodules()]


class TestPackage:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_submodules_import(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_all_exports_exist(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"

    def test_top_level_api(self):
        assert len(repro.ALGORITHM_NAMES) == 5
        grid = repro.random_permutation_grid(4, rng=0)
        report = repro.sort_grid("snake_1", grid)
        assert report.outcome.all_completed


class TestRandomness:
    def test_permutation_is_permutation(self):
        grid = random_permutation_grid(5, rng=0)
        assert sorted(grid.ravel().tolist()) == list(range(25))

    def test_batch_shapes(self):
        assert random_permutation_grid(4, batch=3, rng=0).shape == (3, 4, 4)
        assert random_permutation_grid(4, batch=(2, 3), rng=0).shape == (2, 3, 4, 4)

    def test_reproducible(self):
        a = random_permutation_grid(6, rng=42)
        b = random_permutation_grid(6, rng=42)
        np.testing.assert_array_equal(a, b)

    def test_zero_one_counts(self):
        grid = random_zero_one_grid(5, rng=0)
        assert int((grid == 0).sum()) == paper_zero_count(5)

    def test_zero_one_custom_count(self):
        grid = random_zero_one_grid(4, zeros=3, rng=0)
        assert int((grid == 0).sum()) == 3

    def test_zero_one_invalid_count(self):
        with pytest.raises(DimensionError):
            random_zero_one_grid(4, zeros=17)

    def test_spawn_generators_independent(self):
        gens = spawn_generators(0, 3)
        draws = [g.integers(0, 2**32) for g in gens]
        assert len(set(draws)) == 3

    def test_spawn_from_generator(self):
        gens = spawn_generators(np.random.default_rng(0), 2)
        assert len(gens) == 2

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_bad_side(self):
        with pytest.raises(DimensionError):
            random_permutation_grid(0)


class TestErrors:
    def test_hierarchy(self):
        from repro.errors import (
            MissingWireError,
            ReproError,
            ScheduleValidationError,
            StepLimitExceeded,
            UnsupportedMeshError,
        )

        for exc in (
            DimensionError,
            MissingWireError,
            ScheduleValidationError,
            StepLimitExceeded(1, 1).__class__,
            UnsupportedMeshError,
        ):
            assert issubclass(exc, ReproError)

    def test_step_limit_message(self):
        from repro.errors import StepLimitExceeded

        err = StepLimitExceeded(100, 3)
        assert "100" in str(err) and "3" in str(err)
        assert err.steps_taken == 100 and err.unfinished == 3


class TestDoctests:
    """Docstring examples in the public entry points must stay runnable."""

    def test_runner_doctest(self):
        import doctest

        import repro.core.runner as runner

        results = doctest.testmod(runner, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 1


def test_api_docs_in_sync():
    """docs/API.md must match the current public surface.

    The generator runs without ``PYTHONPATH``, as in a checkout without
    ``pip install -e .``: it must find the package on its own.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(root / "tools" / "gen_api_docs.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr


#: Packages that compile or execute schedules.  ``repro.core.schedule.lower``
#: refuses a schedule that is not a comparator network, so none of them needs
#: the static-analysis package (which in turn never imports an executor:
#: ``tests/analysis/test_mutant_classification.py``).
EXECUTOR_PACKAGES = ("core", "backends", "mesh", "linear")


def _imports_of(packages, banned):
    """``path: module`` for every import of ``banned`` (or a submodule)
    anywhere under the given ``repro`` subpackages, lazy imports included."""
    import ast
    from pathlib import Path

    root = Path(repro.__file__).parent
    offenders = []
    for package in packages:
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                    if node.module == "repro":
                        names += [f"repro.{alias.name}" for alias in node.names]
                offenders += [
                    f"{path.relative_to(root)}: {name}"
                    for name in names
                    if name == banned or name.startswith(banned + ".")
                ]
    return offenders


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestImportLayers:
    def test_executor_packages_never_import_analysis(self):
        offenders = _imports_of(EXECUTOR_PACKAGES, "repro.analysis")
        assert not offenders, offenders

    def test_schedule_families_never_import_the_backends(self):
        """Which backend runs a schedule, the default included, is decided
        in ``repro.backends`` alone."""
        offenders = _imports_of(("schedules",), "repro.backends")
        assert not offenders, offenders

    def test_compiling_and_running_loads_no_analysis_module(self):
        out = _fresh(
            "import sys\n"
            "import repro.backends\n"
            "from repro.backends import compiled_schedule, run_sort\n"
            "from repro.randomness import random_permutation_grid\n"
            "from repro.schedules import build_schedule, family_names, mesh_shape\n"
            "for name in family_names(include_pathological=True):\n"
            "    schedule = build_schedule(name, 4, seed=0)\n"
            "    compiled_schedule(schedule, *mesh_shape(schedule, 4))\n"
            "grids = random_permutation_grid(4, batch=8, rng=0)\n"
            "out = run_sort('vectorized', build_schedule('snake_1', 4), grids)\n"
            "assert out.all_completed\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m == 'repro.analysis' or m.startswith('repro.analysis.'))\n"
            "assert not loaded, loaded\n"
            "print('ANALYSIS-FREE')\n"
        )
        assert "ANALYSIS-FREE" in out

    def test_an_experiment_loads_no_verification_or_analysis(self):
        """Runners are named in the registry, so a run imports its own
        experiment module only: not E-VERIFY's, which loads ``repro.verify``
        and, through it, ``repro.analysis``."""
        out = _fresh(
            "import sys\n"
            "import repro.experiments\n"
            "cfg = repro.experiments.ExperimentConfig(scale='quick')\n"
            "repro.experiments.run_experiment('E-T2', cfg)\n"
            "print(sorted(m for m in sys.modules if m.startswith(\n"
            "    ('repro.verify', 'repro.analysis'))))\n"
        )
        assert out.strip() == "[]"

    def test_certifying_loads_no_executor_campaign_or_experiment(self):
        out = _fresh(
            "import sys\n"
            "from repro.analysis.semantics import certify_sortedness\n"
            "from repro.schedules import resolve\n"
            "assert certify_sortedness(resolve('snake_1', 4), 4, 4).verdict == 'CERTIFIED'\n"
            "print(sorted(m for m in sys.modules if m.startswith((\n"
            "    'repro.experiments', 'repro.campaign', 'repro.backends.driver',\n"
            "    'repro.obs.trace'))))\n"
        )
        assert out.strip() == "[]"

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_the_console_front_door_loads_no_numpy(self, flag):
        out = _fresh(
            "import sys\n"
            "from repro.cli import main\n"
            f"assert main([{flag!r}]) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out.splitlines()[-1] == "False"

    def test_no_lazy_export_is_shadowed_by_a_submodule(self):
        """``import pkg.sub`` binds ``pkg.sub`` to the module, so an export
        named like a submodule would flip from value to module."""
        out = _fresh(
            "import importlib, pkgutil\n"
            "import repro\n"
            "packages = ['repro'] + [info.name for info in pkgutil.walk_packages(\n"
            "    repro.__path__, prefix='repro.') if info.ispkg]\n"
            "lazy = {}\n"
            "for name in packages:\n"
            "    package = importlib.import_module(name)\n"
            "    lazy[name] = set(dir(package)) - set(vars(package))\n"
            "for name, exports in lazy.items():\n"
            "    package = importlib.import_module(name)\n"
            "    assert exports <= set(getattr(package, '__all__', ())), (name, exports)\n"
            "    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}\n"
            "    assert not exports & submodules, (name, exports & submodules)\n"
            "print(*sorted(name for name, exports in lazy.items() if exports))\n"
        )
        assert out.split() == [
            "repro", "repro.analysis", "repro.analysis.semantics", "repro.backends",
            "repro.campaign", "repro.core", "repro.experiments", "repro.obs", "repro.store",
            "repro.theory", "repro.verify", "repro.zeroone",
        ]
