"""Regression tests for the facade error-contract and cache-accounting fixes.

Three bugs fixed alongside the verification harness:

1. ``repro.experiments.sample()`` validated its request lazily (and
   differently) per execution mode — now both modes fail fast with
   :class:`DimensionError` before any work happens;
2. ``SampleResult.meta["seed"]`` silently recorded ``None`` for
   ``SeedSequence``/``Generator`` seeds — now provenance is recorded;
3. concurrent ``compiled_schedule`` callers could compile the same key
   twice and double-count ``_misses`` — now exactly one caller compiles
   while the rest wait.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.backends.compile as compile_mod
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError
from repro.experiments import sample
from repro.experiments.montecarlo import SMALL_SAMPLE_COUNT, summarize
from repro.randomness import seed_provenance


class TestSampleValidation:
    """Bug 1: one error contract for both execution modes."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_kind_rejected_up_front(self, workers):
        with pytest.raises(DimensionError, match="kind"):
            sample("snake_1", side=4, trials=4, kind="step-count", workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_statistic_kind_requires_callable(self, workers):
        with pytest.raises(DimensionError, match="statistic"):
            sample("snake_1", side=4, trials=4, kind="statistic", workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sort_steps_takes_no_statistic(self, workers):
        with pytest.raises(DimensionError, match="no statistic"):
            sample("snake_1", side=4, trials=4, kind="sort_steps",
                   statistic=lambda g: 0, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nonpositive_trials_rejected(self, workers):
        with pytest.raises(DimensionError, match="trials"):
            sample("snake_1", side=4, trials=0, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_input_kind_rejected(self, workers):
        with pytest.raises(DimensionError, match="input_kind"):
            sample("snake_1", side=4, trials=4, input_kind="gaussian",
                   workers=workers)

    def test_trials_zero_no_longer_surfaces_as_late_valueerror(self):
        """The historical symptom: 'cannot summarize an empty sample'."""
        with pytest.raises(DimensionError) as excinfo:
            sample("snake_1", side=4, trials=0)
        assert "summarize" not in str(excinfo.value)


class TestSeedProvenance:
    """Bug 2: explicit seeds are recorded, not silently dropped."""

    def test_int_and_tuple_seeds_round_trip(self):
        assert seed_provenance(7) == 7
        assert seed_provenance((1, 2, 3)) == [1, 2, 3]
        assert seed_provenance(None) is None

    def test_seed_sequence_records_entropy_and_spawn_key(self):
        seq = np.random.SeedSequence(1234).spawn(3)[2]
        prov = seed_provenance(seq)
        assert prov == {"entropy": 1234, "spawn_key": [2]}

    def test_generator_records_marker(self):
        assert seed_provenance(np.random.default_rng(0)) == "<generator>"

    def test_sample_meta_in_process(self):
        result = sample("snake_1", side=4, trials=4,
                        seed=np.random.SeedSequence(99))
        assert result.meta["seed"] == {"entropy": 99, "spawn_key": []}
        result = sample("snake_1", side=4, trials=4,
                        seed=np.random.default_rng(1))
        assert result.meta["seed"] == "<generator>"

    def test_sample_meta_campaign_mode(self):
        result = sample("snake_1", side=4, trials=4,
                        seed=np.random.SeedSequence(99), shard_size=2)
        assert result.meta["mode"] == "campaign"
        assert result.meta["seed"] == {"entropy": 99, "spawn_key": []}

    def test_manifest_accepts_provenance_shapes(self):
        from repro.obs.manifest import RunManifest

        for seed in (7, [1, 2], {"entropy": 1, "spawn_key": []}, "<generator>"):
            manifest = RunManifest(kind="verify", seed=seed)
            assert manifest.seed == seed


class TestCompiledScheduleConcurrency:
    """Bug 3: one compilation, one miss, no matter how many racers."""

    def test_racing_callers_count_one_miss(self, monkeypatch):
        class SlowCompiled(compile_mod.CompiledSchedule):
            def __init__(self, schedule, rows, cols):
                time.sleep(0.05)  # widen the race window
                super().__init__(schedule, rows, cols)

        monkeypatch.setattr(compile_mod, "CompiledSchedule", SlowCompiled)
        compile_mod.schedule_cache_clear()
        schedule = get_algorithm("snake_1")
        results: list[object] = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(compile_mod.compiled_schedule(schedule, 6, 6))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        info = compile_mod.schedule_cache_info()
        assert info.misses == 1, f"racing callers double-compiled: {info}"
        assert info.hits == 7
        assert len({id(r) for r in results}) == 1
        compile_mod.schedule_cache_clear()

    def test_failed_compilation_releases_waiters(self, monkeypatch):
        calls = {"count": 0}
        real = compile_mod.CompiledSchedule

        class FlakyCompiled(real):
            def __init__(self, schedule, rows, cols):
                calls["count"] += 1
                if calls["count"] == 1:
                    raise RuntimeError("planted compile failure")
                super().__init__(schedule, rows, cols)

        monkeypatch.setattr(compile_mod, "CompiledSchedule", FlakyCompiled)
        compile_mod.schedule_cache_clear()
        schedule = get_algorithm("snake_2")
        with pytest.raises(RuntimeError, match="planted"):
            compile_mod.compiled_schedule(schedule, 6, 6)
        # The failed attempt must not leave the key locked forever.
        compiled = compile_mod.compiled_schedule(schedule, 6, 6)
        assert compiled is not None
        assert compile_mod.schedule_cache_info().misses == 1
        compile_mod.schedule_cache_clear()

    def test_distinct_keys_compile_independently(self):
        compile_mod.schedule_cache_clear()
        a = compile_mod.compiled_schedule(get_algorithm("snake_1"), 4, 4)
        b = compile_mod.compiled_schedule(get_algorithm("snake_1"), 6, 6)
        assert a is not b
        assert compile_mod.schedule_cache_info().misses == 2
        compile_mod.schedule_cache_clear()


class TestTrialStats:
    """Satellite: summarize()/describe() edge cases."""

    def test_empty_sample_raises_value_error(self):
        with pytest.raises(ValueError, match="empty sample"):
            summarize(np.array([]))

    def test_small_sample_flags_unreliable_ci(self):
        stats = summarize(np.arange(SMALL_SAMPLE_COUNT - 1))
        assert not stats.ci95_reliable
        assert "CI unreliable" in stats.describe()

    def test_large_sample_reports_ci(self):
        stats = summarize(np.arange(SMALL_SAMPLE_COUNT))
        assert stats.ci95_reliable
        assert "95% CI" in stats.describe()
        lo, hi = stats.ci95
        assert lo < stats.mean < hi

    def test_single_value_sample(self):
        stats = summarize(np.array([5.0]))
        assert stats.count == 1
        assert stats.std == 0.0  # repro: allow=RPR106
        assert stats.sem == 0.0  # repro: allow=RPR106
        assert not stats.ci95_reliable
