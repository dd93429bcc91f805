"""run_campaign: worker-count determinism, retry, fault tolerance, events."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.errors import CampaignError, DimensionError
from repro.obs import (
    CompositeObserver,
    MetricsObserver,
    MetricsRegistry,
    RecordingObserver,
)
from repro.campaign.checkpoint import CheckpointStore, checkpoint_path
from tests.campaign.faulty import (
    MARKER_ENV,
    SLOW_SECONDS,
    broken_statistic,
    flaky_statistic,
    library_loaded_values,
    slow_statistic,
)

SPEC = CampaignSpec("snake_1", side=6, trials=40, seed=2026, shard_size=8)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_across_worker_counts(self, workers):
        baseline = run_campaign(SPEC, workers=1)
        result = run_campaign(SPEC, workers=workers)
        np.testing.assert_array_equal(result.values, baseline.values)
        assert result.values_digest == baseline.values_digest
        assert result.values.dtype == np.int64

    def test_backend_parity(self):
        baseline = run_campaign(SPEC, workers=1)
        spec_ref = CampaignSpec(
            "snake_1", side=6, trials=40, seed=2026, shard_size=8,
            backend="reference",
        )
        np.testing.assert_array_equal(
            run_campaign(spec_ref, workers=1).values, baseline.values
        )

    def test_statistic_campaign_across_workers(self):
        spec = CampaignSpec(
            "snake_1", side=6, trials=32, seed=5, shard_size=8,
            kind="statistic", statistic=flaky_statistic, num_steps=2,
        )
        a = run_campaign(spec, workers=1)
        b = run_campaign(spec, workers=2)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.dtype == np.float64

    def test_shard_boundaries_do_change_values(self):
        """shard_size is part of the identity: a different plan is a
        different campaign, not a silent re-draw of the same one."""
        other = CampaignSpec("snake_1", side=6, trials=40, seed=2026, shard_size=10)
        assert not np.array_equal(
            run_campaign(other).values, run_campaign(SPEC).values
        )


class TestRetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_fault_is_retried(self, tmp_path, monkeypatch, workers):
        """One failed attempt is one retry, counted the same way in the
        result meta, the shard events and the metrics, at any worker count."""
        marker = tmp_path / "fault"
        marker.touch()
        monkeypatch.setenv(MARKER_ENV, str(marker))
        spec = CampaignSpec(
            "snake_1", side=6, trials=24, seed=1, shard_size=8,
            kind="statistic", statistic=flaky_statistic,
        )
        rec = RecordingObserver()
        registry = MetricsRegistry()
        observer = CompositeObserver([rec, MetricsObserver(registry)])
        result = run_campaign(spec, workers=workers, retries=2, observer=observer)
        assert not marker.exists()
        assert result.meta["shard_retries"] == 1
        assert sorted(e.attempts for e in rec.shard_ends) == [1, 1, 2]
        assert registry["repro_campaign_shard_retries_total"].value == 1

        clean = run_campaign(spec, workers=1)
        np.testing.assert_array_equal(result.values, clean.values)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_permanent_fault_exhausts_retries(self, workers):
        spec = CampaignSpec(
            "snake_1", side=6, trials=16, seed=1, shard_size=8,
            kind="statistic", statistic=broken_statistic,
        )
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(spec, workers=workers, retries=1)
        assert excinfo.value.failed_shards == [0, 1]
        message = str(excinfo.value)
        for index in (0, 1):
            assert f"shard {index} failed after 2 attempt(s)" in message
        assert "injected permanent fault" in message
        assert "injected permanent fault" in str(excinfo.value.__cause__)

    def test_failed_shard_is_retried_at_the_end_of_its_round(self, tmp_path, monkeypatch):
        """At workers=1 the round runs on past a failure, checkpointing
        each later shard at once; the failed shard runs again after them."""
        marker = tmp_path / "fault"
        marker.touch()
        monkeypatch.setenv(MARKER_ENV, str(marker))
        spec = CampaignSpec(
            "snake_1", side=6, trials=24, seed=1, shard_size=8,
            kind="statistic", statistic=flaky_statistic,
        )
        rec = RecordingObserver()
        run_campaign(spec, workers=1, observer=rec, checkpoint_dir=tmp_path)
        assert [e.index for e in rec.shard_ends] == [1, 2, 0]
        assert [e.attempts for e in rec.shard_ends] == [1, 1, 2]

    def test_argument_validation(self):
        with pytest.raises(DimensionError):
            run_campaign(SPEC, workers=0)
        with pytest.raises(DimensionError):
            run_campaign(SPEC, retries=-1)
        with pytest.raises(DimensionError, match="requires checkpoint_dir"):
            run_campaign(SPEC, max_shards=2)
        with pytest.raises(DimensionError, match="requires checkpoint_dir"):
            run_campaign(SPEC, resume=True)


class TestEventsAndMeta:
    def test_pool_shard_time_is_the_shards_own_run_time(self, tmp_path):
        """Four slow shards on two workers: the last two wait a whole shard
        in the queue, which must not count in their elapsed time."""
        spec = CampaignSpec(
            "snake_1", side=6, trials=32, seed=3, shard_size=8,
            kind="statistic", statistic=slow_statistic,
        )
        # One shard in-process first: forked workers then inherit the
        # sampling modules and caches instead of loading them in a shard.
        run_campaign(CampaignSpec(
            "snake_1", side=6, trials=8, seed=3, shard_size=8,
            kind="statistic", statistic=slow_statistic,
        ))
        rec = RecordingObserver()
        registry = MetricsRegistry()
        run_campaign(
            spec, workers=2, checkpoint_dir=tmp_path,
            observer=CompositeObserver([rec, MetricsObserver(registry)]),
        )
        records = CheckpointStore(checkpoint_path(tmp_path, spec), spec).load_records()
        for elapsed in (
            [event.elapsed for event in rec.shard_ends],
            [record.elapsed for record in records.values()],
        ):
            assert len(elapsed) == 4
            assert all(SLOW_SECONDS <= t < 1.8 * SLOW_SECONDS for t in elapsed), elapsed
        seconds = registry["repro_shard_seconds"]
        assert seconds.histogram.count == 4
        assert seconds.histogram.max < 1.8 * SLOW_SECONDS

    def test_pool_workers_inherit_the_sampling_modules(self):
        """A coordinator that never imported ``repro.experiments``: every
        pool shard, a worker's first included, takes about the statistic's
        own time, because the workers fork after the sampling body loads."""
        code = (
            "import json, sys\n"
            "from repro.campaign import CampaignSpec, run_campaign\n"
            "from repro.obs import RecordingObserver\n"
            "from tests.campaign.faulty import slow_statistic\n"
            "assert 'repro.experiments' not in sys.modules\n"
            "rec = RecordingObserver()\n"
            "run_campaign(CampaignSpec('snake_1', side=6, trials=32, seed=3, shard_size=8,\n"
            "                          kind='statistic', statistic=slow_statistic),\n"
            "             workers=2, observer=rec)\n"
            "print(json.dumps([event.elapsed for event in rec.shard_ends]))\n"
        )
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            cwd=root, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        elapsed = json.loads(result.stdout)
        assert len(elapsed) == 4
        assert max(elapsed) < 1.5 * min(elapsed), elapsed

    def test_pool_workers_inherit_the_c_library(self, monkeypatch):
        """The coordinator loads the library before the pool forks, so no
        worker runs the compiler probe in its first shard."""
        from repro import _clib
        from repro.campaign import runner

        monkeypatch.setattr(_clib, "_library", None)
        monkeypatch.setattr(runner, "_shard_values", library_loaded_values)
        # The statistic is never called: the stand-in replaces the shard body.
        spec = CampaignSpec("snake_1", side=4, trials=8, seed=1, shard_size=2,
                            kind="statistic", statistic=slow_statistic)
        result = run_campaign(spec, workers=2)
        assert result.values.size == 8 and result.values.all(), result.values

    def test_campaign_events_emitted(self):
        rec = RecordingObserver()
        result = run_campaign(SPEC, workers=1, observer=rec)
        assert len(rec.campaign_starts) == 1
        start = rec.campaign_starts[0]
        assert start.campaign == SPEC.fingerprint
        assert start.num_shards == 5
        assert start.workers == 1
        assert len(rec.shard_ends) == 5
        assert sum(e.trials for e in rec.shard_ends) == 40
        assert len(rec.campaign_ends) == 1
        end = rec.campaign_ends[0]
        assert end.complete and end.trials == 40
        assert result.meta["num_shards"] == 5

    def test_no_per_step_events_leak_from_shards(self):
        """Shard execution must not re-enter the ambient observer."""
        from repro.obs import use_observer

        rec = RecordingObserver()
        with use_observer(rec):
            run_campaign(SPEC, workers=1)
        assert rec.run_starts == []
        assert rec.steps == []
        assert len(rec.campaign_starts) == 1

    def test_meta_and_result_shape(self):
        result = run_campaign(SPEC, workers=2)
        assert result.complete
        assert len(result) == 40
        assert result.meta["mode"] == "campaign"
        assert result.meta["workers"] == 2
        assert result.meta["checkpoint"] is None
        assert result.stats.count == 40
        np.testing.assert_array_equal(np.asarray(result), result.values)
