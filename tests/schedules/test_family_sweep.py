"""Every registered family through the verification and campaign stacks.

The cross-backend differential runner and the metamorphic properties are
parametrized over ``schedules.available_families()`` — including a seeded
random-network instance — so registering a family is enough to put it
under the full property surface.  The campaign tests pin the reproduction
contract for generated families: the same spec merges to bit-identical
statistics regardless of worker count, and the fingerprint moves with the
generator seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import sample
from repro.randomness import random_permutation_mesh
from repro.schedules import (
    available_families,
    build_schedule,
    get_family,
    mesh_shape,
)
from repro.verify.differential import differential_run
from repro.verify.inputs import generate_cases, generate_linear_cases
from repro.verify.metamorphic import (
    check_relabeling_invariance,
    check_threshold_consistency,
)

SIDE = 6  # even: every family (incl. requires_even_side) is defined here
SEED = 11


def _instance(name: str):
    schedule = build_schedule(name, SIDE, seed=SEED)
    return schedule, mesh_shape(schedule, SIDE)


def _cases(name: str):
    schedule, (rows, cols) = _instance(name)
    if rows == cols:
        return schedule, generate_cases(SIDE, schedule.order, seed=SEED)
    return schedule, generate_linear_cases(cols, seed=SEED)


class TestFamilySweep:
    @pytest.mark.parametrize("name", available_families())
    def test_differential_all_backends_agree(self, name):
        schedule, cases = _cases(name)
        for case in cases:
            report = differential_run(schedule, case.grid)
            assert report.ok, report.describe()

    @pytest.mark.parametrize("name", available_families())
    def test_threshold_consistency(self, name):
        schedule, cases = _cases(name)
        perm = next(c for c in cases if c.family == "permutation")
        n_cells = int(np.asarray(perm.grid).size)
        zs = [1, n_cells // 2, n_cells - 1]
        assert check_threshold_consistency(schedule, perm.grid, thresholds=zs) == []

    @pytest.mark.parametrize("name", available_families())
    def test_relabeling_invariance(self, name):
        schedule, cases = _cases(name)
        perm = next(c for c in cases if c.family == "permutation")
        assert check_relabeling_invariance(schedule, perm.grid, seed=SEED) == []

    @pytest.mark.parametrize("name", available_families())
    def test_sorts_on_default_backend(self, name):
        from repro.backends import run_sort
        from repro.schedules import execution_backend

        schedule, shape = _instance(name)
        grid = random_permutation_mesh(shape, rng=(SEED, 55))
        out = run_sort(execution_backend(), schedule, grid)
        assert bool(np.all(out.completed))

    def test_seeded_instance_is_in_the_sweep(self):
        """The sweep genuinely covers a generated, seeded network."""
        assert "random_network" in available_families()
        assert get_family("random_network").seedable


class TestCampaignReproducibility:
    SPEC = f"random_network[seed=3,side={SIDE},steps=40]"

    def _run(self, workers: int):
        return sample(
            self.SPEC,
            side=SIDE,
            trials=24,
            seed=(SEED, 7),
            shard_size=8,
            workers=workers,
        )

    def test_worker_count_does_not_change_values(self):
        serial = self._run(1)
        pooled = self._run(2)
        np.testing.assert_array_equal(serial.values, pooled.values)
        assert serial.stats.mean == pooled.stats.mean

    def test_meta_names_the_generated_instance(self):
        result = self._run(1)
        assert result.meta["algorithm"] == self.SPEC
        assert result.meta["backend"] == "vectorized"

    @pytest.mark.parametrize("family", ["odd_even", "shearsort"])
    def test_registry_families_sample_by_bare_name(self, family):
        result = sample(family, side=SIDE, trials=6, seed=(SEED, 9))
        assert len(result.values) == 6
        assert bool(np.all(np.asarray(result.values) >= 0))
