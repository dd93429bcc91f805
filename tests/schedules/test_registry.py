"""The schedule-family registry: lookup, specs, building, identity."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import CampaignSpec
from repro.core.algorithms import ALGORITHM_NAMES
from repro.core.schedule import Schedule
from repro.errors import DimensionError, UnknownScheduleError, UnsupportedMeshError
from repro.experiments.sampling import sample
from repro.schedules import (
    ScheduleFamily,
    available_families,
    build_schedule,
    family_names,
    get_family,
    mesh_shape,
    parse_spec,
    register_family,
    resolve,
    spec_name,
    topology_of,
)
from repro.schedules import registry as registry_mod


class TestLookup:
    def test_all_paper_algorithms_registered(self):
        names = family_names()
        for name in ALGORITHM_NAMES:
            assert name in names

    def test_baselines_and_linear_registered(self):
        names = family_names()
        for name in ("shearsort", "row_major_no_wrap", "odd_even", "random_network"):
            assert name in names

    def test_available_excludes_pathological(self):
        assert "row_major_no_wrap" not in available_families()
        assert "row_major_no_wrap" in available_families(include_pathological=True)
        assert "row_major_no_wrap" in family_names()

    def test_unknown_name_lists_families(self):
        with pytest.raises(UnknownScheduleError, match="snake_1"):
            get_family("quicksort")

    def test_unknown_error_satisfies_both_contracts(self):
        """The error is catchable as either historical exception family."""
        with pytest.raises(DimensionError):
            get_family("quicksort")
        with pytest.raises(UnsupportedMeshError):
            get_family("quicksort")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DimensionError, match="already registered"):
            register_family(get_family("snake_1"))

    def test_registration_round_trip(self):
        family = ScheduleFamily(
            name="tmp_test_family",
            builder=lambda: build_schedule("snake_1"),
            description="test-only",
        )
        replacement = ScheduleFamily(
            name="tmp_test_family",
            builder=lambda: build_schedule("snake_2"),
            description="test-only",
        )
        try:
            register_family(family)
            assert get_family("tmp_test_family") is family
            assert resolve("tmp_test_family") == build_schedule("snake_1")
            # The memo is keyed on the builder, not the name: a name popped
            # and re-registered serves the new builder's schedule.
            registry_mod._REGISTRY.pop("tmp_test_family")
            register_family(replacement)
            assert resolve("tmp_test_family") == build_schedule("snake_2")
        finally:
            # No public unregister (by design); clean the test entry out of
            # the process-global registry directly.
            registry_mod._REGISTRY.pop("tmp_test_family", None)

    def test_bad_family_metadata_rejected(self):
        with pytest.raises(DimensionError):
            ScheduleFamily(name="has space", builder=lambda: None)
        with pytest.raises(DimensionError):
            ScheduleFamily(name="ok_name", builder=lambda: None, topology="torus")


class TestSpecSyntax:
    def test_bare_name(self):
        assert parse_spec("snake_1") == ("snake_1", {})

    def test_params_parse(self):
        assert parse_spec("shearsort[side=8]") == ("shearsort", {"side": 8})
        assert parse_spec("random_network[seed=3,side=8,steps=64]") == (
            "random_network",
            {"seed": 3, "side": 8, "steps": 64},
        )

    def test_round_trip_canonical(self):
        name = spec_name("random_network", side=8, steps=64, seed=3)
        assert name == "random_network[seed=3,side=8,steps=64]"
        base, params = parse_spec(name)
        assert spec_name(base, **params) == name

    @pytest.mark.parametrize(
        "bad", ["", "1snake", "snake_1[", "snake_1[side]", "snake_1[side=x]"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(UnknownScheduleError):
            parse_spec(bad)

    def test_spec_errors_are_dimension_errors(self):
        with pytest.raises(DimensionError):
            parse_spec("snake_1[side=x]")


class TestBuild:
    def test_fixed_family_ignores_side(self):
        assert build_schedule("snake_1") == build_schedule("snake_1", side=8)

    def test_sided_family_needs_side(self):
        with pytest.raises(UnknownScheduleError, match="side"):
            build_schedule("shearsort")

    def test_seedable_family_needs_seed(self):
        with pytest.raises(UnknownScheduleError, match="seed"):
            build_schedule("random_network", side=8)

    def test_spec_params_win_over_arguments(self):
        pinned = build_schedule("shearsort[side=8]", side=4)
        assert pinned.metadata["side"] == 8

    def test_unknown_param_rejected(self):
        with pytest.raises(UnknownScheduleError, match="wibble"):
            build_schedule("snake_1[wibble=3]")

    def test_spec_and_kwargs_build_identical_instances(self):
        a = build_schedule("random_network[seed=3,side=8,steps=64]")
        b = build_schedule("random_network", side=8, seed=3, params={"steps": 64})
        assert a == b
        assert hash(a) == hash(b)
        assert a.name == b.name

    def test_resolve_passes_schedules_through(self):
        schedule = build_schedule("snake_2")
        assert resolve(schedule) is schedule

    def test_resolve_unknown_lists_families(self):
        with pytest.raises(UnknownScheduleError, match="unknown algorithm"):
            resolve("bitonic")


@pytest.fixture
def counting_family():
    """A temporary family whose builder counts its calls; ``fail`` makes it
    raise instead of building."""
    calls = {"builds": 0, "fail": False}

    def builder() -> Schedule:
        calls["builds"] += 1
        if calls["fail"]:
            raise DimensionError("builder refused")
        return replace(build_schedule("snake_1"), name="tmp_counted")

    register_family(ScheduleFamily(name="tmp_counted", builder=builder))
    try:
        yield calls
    finally:
        registry_mod._REGISTRY.pop("tmp_counted", None)


class TestMemo:
    """Builds are memoised per process on ``(builder, params)``."""

    @pytest.mark.parametrize(
        "spec, kwargs",
        [
            ("snake_1", {}),
            ("shearsort", {}),
            ("random_network[seed=3,steps=40]", {}),
            ("random_network", {"seed": 3}),
        ],
    )
    def test_same_request_same_instance(self, spec, kwargs):
        assert resolve(spec, 6, **kwargs) is resolve(spec, 6, **kwargs)

    def test_spellings_share_one_instance(self):
        assert resolve("random_network[seed=3]", 6) is resolve(
            "random_network", 6, seed=3
        )
        assert resolve("shearsort[side=6]") is resolve("shearsort", 6)

    @pytest.mark.parametrize(
        "other",
        [
            ("random_network[seed=4,steps=40]", 6),
            ("random_network[seed=3,steps=40]", 8),
            ("random_network[seed=3,steps=48]", 6),
        ],
    )
    def test_distinct_params_distinct_instances(self, other):
        base = resolve("random_network[seed=3,steps=40]", 6)
        schedule = resolve(*other)
        assert schedule is not base
        assert schedule.name != base.name

    def test_errors_are_not_cached(self, counting_family):
        counting_family["fail"] = True
        for _ in range(2):
            with pytest.raises(DimensionError, match="builder refused"):
                resolve("tmp_counted")
        assert counting_family["builds"] == 2
        counting_family["fail"] = False
        assert resolve("tmp_counted") is resolve("tmp_counted")
        assert counting_family["builds"] == 3

    def test_store_hits_build_nothing(self, counting_family, tmp_path):
        """A cold sharded sample builds its schedule once; repeat requests
        served from the store build nothing more."""
        kwargs = dict(side=6, trials=40, seed=99, shard_size=8, store=tmp_path)
        cold = sample("tmp_counted", **kwargs)
        assert cold.meta["store"]["hit"] is False
        for _ in range(25):
            warm = sample("tmp_counted", **kwargs)
            assert warm.meta["store"]["hit"] is True
            assert warm.values_digest == cold.values_digest
        assert counting_family["builds"] == 1


class TestTopology:
    def test_square_default(self):
        schedule = build_schedule("snake_1")
        assert topology_of(schedule) == "square"
        assert mesh_shape(schedule, 6) == (6, 6)

    def test_linear_families(self):
        for spec in ("odd_even", "random_network[seed=0,side=6]"):
            schedule = build_schedule(spec, side=6, seed=0)
            assert topology_of(schedule) == "linear"
            assert mesh_shape(schedule, 6) == (1, 6)

    def test_tiny_side_rejected(self):
        with pytest.raises(DimensionError):
            mesh_shape(build_schedule("snake_1"), 1)


class TestFingerprintIdentity:
    """Generated params and seeds reach the campaign fingerprint via the name."""

    def _spec(self, algorithm: str) -> CampaignSpec:
        return CampaignSpec(algorithm, side=6, trials=8, shard_size=4, seed=1)

    def test_same_instance_same_fingerprint(self):
        a = self._spec("random_network[seed=3,side=6,steps=40]")
        b = self._spec("random_network[seed=3,side=6,steps=40]")
        assert a.fingerprint == b.fingerprint

    def test_network_seed_changes_fingerprint(self):
        a = self._spec("random_network[seed=3,side=6,steps=40]")
        b = self._spec("random_network[seed=4,side=6,steps=40]")
        assert a.fingerprint != b.fingerprint

    def test_network_params_change_fingerprint(self):
        a = self._spec("random_network[seed=3,side=6,steps=40]")
        b = self._spec("random_network[seed=3,side=6,steps=48]")
        assert a.fingerprint != b.fingerprint

    def test_sided_family_resolves_to_instance_name(self):
        spec = self._spec("shearsort")
        assert spec.algorithm_name == "shearsort[side=6]"

    def test_unknown_algorithm_rejected_at_spec_time(self):
        with pytest.raises(DimensionError, match="unknown algorithm"):
            self._spec("quicksort")


class TestCompileCacheIdentity:
    def test_different_seeds_compile_separately(self):
        from repro.backends.compile import (
            compiled_schedule,
            schedule_cache_clear,
            schedule_cache_info,
        )

        schedule_cache_clear()
        a = build_schedule("random_network", side=6, seed=1)
        b = build_schedule("random_network", side=6, seed=2)
        ca = compiled_schedule(a, 1, 6)
        cb = compiled_schedule(b, 1, 6)
        assert ca is not cb
        assert schedule_cache_info().misses >= 2
        # Rebuilding the same spec hits the cache: value-hashed identity.
        assert compiled_schedule(build_schedule("random_network", side=6, seed=1), 1, 6) is ca


class TestDeterminism:
    def test_network_rebuild_is_bit_identical(self):
        a = build_schedule("random_network", side=8, seed=42)
        b = build_schedule("random_network", side=8, seed=42)
        assert a == b
        assert a.steps == b.steps

    def test_network_covers_every_adjacent_position(self):
        schedule = build_schedule("random_network", side=8, seed=0, params={"steps": 5})
        positions = {op.low[1] for step in schedule.steps for op in step.ops}
        assert positions == set(range(7))

    def test_network_sorts(self):
        from repro.backends import run_sort

        schedule = build_schedule("random_network", side=8, seed=7)
        rng = np.random.default_rng(0)
        grid = rng.permutation(8).reshape(1, 8)
        out = run_sort("vectorized", schedule, grid)
        assert bool(np.all(out.completed))
        np.testing.assert_array_equal(out.final, np.arange(8).reshape(1, 8))

    def test_step_cap_hint_honoured(self):
        from repro.backends.base import resolve_step_cap, step_cap

        schedule = build_schedule("random_network", side=8, seed=7)
        hint = int(schedule.metadata["step_cap_hint"])
        assert resolve_step_cap(schedule, 1, 8) == max(hint, step_cap(1, 8))


class TestCertifiedSides:
    def test_declarations_match_topology_constraints(self):
        for name in family_names(include_pathological=True):
            family = get_family(name)
            assert all(side >= 2 for side in family.certified_sides), name
            if family.requires_even_side:
                assert all(s % 2 == 0 for s in family.certified_sides), name

    def test_bad_certified_sides_rejected(self):
        with pytest.raises(DimensionError):
            ScheduleFamily(
                name="ok_name", builder=lambda: None, certified_sides=(1,)
            )
        with pytest.raises(DimensionError):
            ScheduleFamily(
                name="ok_name", builder=lambda: None,
                requires_even_side=True, certified_sides=(2, 3),
            )

    def test_paper_and_baseline_declarations(self):
        assert get_family("row_major_row_first").certified_sides == (2, 4)
        assert get_family("snake_1").certified_sides == (2, 3, 4)
        assert get_family("shearsort").certified_sides == (2, 3, 4)
        assert get_family("odd_even").certified_sides == (2, 3, 4, 8, 16)
        assert get_family("random_network").certified_sides == ()
        assert get_family("row_major_no_wrap").certified_sides == ()
