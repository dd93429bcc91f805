"""The sample() facade and small-sample statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.experiments import SampleResult, sample
from repro.experiments.montecarlo import SMALL_SAMPLE_COUNT, summarize
from repro.zeroone.trackers import z1_statistic
from repro.zeroone.weights import first_column_zeros


class TestFacadeInProcessPath:
    """Literal pins of the in-process stream: a change to the draw order,
    the batch split or an executor shows up here first."""

    def test_sort_steps_values_pinned(self):
        result = sample("snake_1", side=6, trials=12, seed=7)
        np.testing.assert_array_equal(
            result.values, [33, 36, 33, 36, 33, 30, 29, 29, 31, 34, 37, 35]
        )
        assert result.meta["mode"] == "in-process"

    def test_statistic_values_pinned(self):
        result = sample(
            "snake_1", side=6, trials=10, kind="statistic",
            statistic=z1_statistic, seed=11,
        )
        np.testing.assert_array_equal(
            result.values, [15, 15, 15, 14, 15, 14, 15, 15, 14, 15]
        )

    def test_all_arguments_reach_the_draw(self):
        result = sample(
            "snake_1", side=6, trials=9, seed=4, input_kind="zero_one",
            batch_size=3, backend="reference",
        )
        np.testing.assert_array_equal(
            result.values, [30, 22, 22, 26, 22, 26, 30, 30, 22]
        )

    def test_positional_statistic_validation(self):
        with pytest.raises(DimensionError, match="requires a statistic"):
            sample("snake_1", side=6, trials=4, kind="statistic")
        with pytest.raises(DimensionError, match="no statistic"):
            sample("snake_1", side=6, trials=4, statistic=z1_statistic)
        with pytest.raises(DimensionError, match="kind"):
            sample("snake_1", side=6, trials=4, kind="nonsense")

    def test_resume_without_checkpoint_dir_is_refused(self):
        # As ExecutionOptions and `repro run` refuse it: no silent
        # in-process run.
        with pytest.raises(DimensionError, match="resume=True requires checkpoint_dir"):
            sample("snake_1", side=4, trials=8, resume=True)

    def test_negative_retries_are_refused(self):
        with pytest.raises(DimensionError, match="retries must be >= 0"):
            sample("snake_1", side=4, trials=8, retries=-1)


class TestFacadeCampaignPath:
    def test_workers_flag_switches_to_campaign_mode(self):
        result = sample("snake_1", side=6, trials=24, seed=1, workers=2)
        assert result.meta["mode"] == "campaign"
        assert result.meta["workers"] == 2

    def test_shard_size_alone_switches(self):
        result = sample("snake_1", side=6, trials=24, seed=1, shard_size=8)
        assert result.meta["mode"] == "campaign"
        assert result.meta["num_shards"] == 3

    def test_checkpoint_dir_alone_switches(self, tmp_path):
        result = sample(
            "snake_1", side=6, trials=24, seed=1, checkpoint_dir=tmp_path
        )
        assert result.meta["mode"] == "campaign"
        assert result.meta["checkpoint"] is not None

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_campaign_values_worker_invariant(self, workers):
        baseline = sample("snake_1", side=6, trials=24, seed=1, shard_size=8)
        result = sample(
            "snake_1", side=6, trials=24, seed=1, shard_size=8, workers=workers
        )
        assert result.values_digest == baseline.values_digest

    def test_statistic_campaign(self):
        result = sample(
            "snake_1", side=6, trials=24, kind="statistic",
            statistic=first_column_zeros, seed=2, workers=2, shard_size=8,
        )
        assert result.values.dtype == np.float64
        assert result.stats.count == 24


class TestSampleResult:
    def test_array_protocol(self):
        result = sample("snake_1", side=6, trials=8, seed=0)
        assert len(result) == 8
        assert float(np.mean(result)) == result.stats.mean
        as_f32 = np.asarray(result, dtype=np.float32)
        assert as_f32.dtype == np.float32

    def test_digest_tracks_values(self):
        a = sample("snake_1", side=6, trials=8, seed=0)
        b = sample("snake_1", side=6, trials=8, seed=0)
        c = sample("snake_1", side=6, trials=8, seed=1)
        assert a.values_digest == b.values_digest
        assert a.values_digest != c.values_digest

    def test_to_manifest_in_process(self):
        manifest = sample("snake_1", side=6, trials=8, seed=0).to_manifest()
        assert manifest.kind == "run"
        assert manifest.algorithm == "snake_1"
        assert manifest.result_digest

    def test_to_manifest_campaign(self):
        manifest = sample(
            "snake_1", side=6, trials=16, seed=0, shard_size=8
        ).to_manifest()
        assert manifest.kind == "campaign"
        assert manifest.extra["num_shards"] == 2

    def test_isinstance(self):
        assert isinstance(sample("snake_1", side=6, trials=4), SampleResult)


class TestSmallSampleStats:
    def test_small_sample_flagged(self):
        stats = summarize(np.arange(5.0))
        assert not stats.ci95_reliable
        assert "CI unreliable" in stats.describe()
        assert f"n=5 < {SMALL_SAMPLE_COUNT}" in stats.describe()

    def test_large_sample_not_flagged(self):
        stats = summarize(np.arange(float(SMALL_SAMPLE_COUNT)))
        assert stats.ci95_reliable
        assert "95% CI [" in stats.describe()

    def test_ci_still_computed_when_small(self):
        stats = summarize(np.array([1.0, 2.0, 3.0]))
        lo, hi = stats.ci95
        assert lo < stats.mean < hi
