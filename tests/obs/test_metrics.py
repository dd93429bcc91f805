"""Metrics registry: instrument semantics, exporters, and event bridges."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import run_sort, step_cap
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError
from repro.mesh.machine import mesh_sort
from repro.obs import MetricsObserver, MetricsRegistry


def perm_grid(side: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(side * side).reshape(side, side)


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5  # repro: allow=RPR106
        with pytest.raises(DimensionError):
            c.inc(-1)

    def test_histogram_buckets_and_stats(self):
        h = MetricsRegistry().histogram("repro_h", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 555.5  # repro: allow=RPR106
        assert h.min == 0.5 and h.max == 500  # repro: allow=RPR106
        assert h.cumulative_counts() == [1, 2, 3]
        assert h.overflow == 1

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(DimensionError):
            MetricsRegistry().histogram("repro_bad", buckets=(10, 1))

    def test_timer_context(self):
        t = MetricsRegistry().timer("repro_t_seconds")
        with t.time() as ctx:
            pass
        assert t.count == 1
        assert t.total == ctx.elapsed >= 0

    def test_registration_idempotent_but_kind_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_c") is reg.counter("repro_c")
        with pytest.raises(DimensionError):
            reg.histogram("repro_c")

    def test_bad_metric_name_rejected(self):
        with pytest.raises(DimensionError):
            MetricsRegistry().counter("bad name!")


class TestExporters:
    def make_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", "runs").inc(3)
        h = reg.histogram("repro_steps", buckets=(10, 100))
        h.observe(5)
        h.observe(50)
        return reg

    def test_json_roundtrip(self, tmp_path):
        reg = self.make_registry()
        path = tmp_path / "metrics.json"
        text = reg.to_json(path)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(text)
        assert on_disk["repro_runs_total"]["value"] == 3
        assert on_disk["repro_steps"]["buckets"] == {"10.0": 1, "100.0": 2}

    def test_prometheus_text(self):
        text = self.make_registry().to_prometheus_text()
        assert "# TYPE repro_runs_total counter" in text
        assert "repro_runs_total 3" in text
        assert "# TYPE repro_steps histogram" in text
        assert 'repro_steps_bucket{le="10"} 1' in text
        assert 'repro_steps_bucket{le="+Inf"} 2' in text
        assert "repro_steps_count 2" in text
        assert text.endswith("\n")


class TestMetricsObserver:
    def test_engine_run_tallies(self):
        obs = MetricsObserver()
        outcome = run_sort(
            "vectorized", get_algorithm("snake_1"), perm_grid(6), observer=obs
        )
        reg = obs.registry
        t_f = outcome.steps_scalar()
        assert reg["repro_runs_total"].value == 1
        assert reg["repro_steps_total"].value == t_f
        assert reg["repro_run_steps"].count == 1
        assert reg["repro_run_seconds"].count == 1

    def test_no_per_step_metrics(self):
        # Step counts come from RunStart/RunEnd; nothing is tallied per step.
        names = MetricsObserver().registry.names()
        for gone in ("repro_swaps_total", "repro_comparisons_total", "repro_step_swaps"):
            assert gone not in names

    def test_batched_run_records_every_trial(self):
        obs = MetricsObserver()
        grids = np.stack([perm_grid(4, seed=s) for s in range(5)])
        run_sort("vectorized", get_algorithm("snake_1"), grids, observer=obs)
        assert obs.registry["repro_run_steps"].count == 5

    def test_mesh_steps_counted(self):
        obs = MetricsObserver()
        t_f, _ = mesh_sort(
            get_algorithm("snake_1"), perm_grid(6),
            max_steps=step_cap(6), observer=obs,
        )
        assert obs.registry["repro_steps_total"].value == t_f
        assert obs.registry["repro_run_steps"].max == t_f


class TestRegistryMerge:
    """Cross-process aggregation: the campaign coordinator's primitive."""

    def test_counters_add(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.counter("repro_runs_total").inc(2)
        theirs.counter("repro_runs_total").inc(3)
        mine.merge(theirs)
        assert mine["repro_runs_total"].value == 5

    def test_unknown_instruments_created_from_snapshot(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        theirs.counter("repro_new_total", "worker-side only").inc(4)
        mine.merge(theirs)
        assert mine["repro_new_total"].value == 4
        assert mine["repro_new_total"].help == "worker-side only"

    def test_histogram_counts_sum_minmax_combine(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        buckets = (1.0, 10.0, 100.0)
        h1 = mine.histogram("repro_h", buckets=buckets)
        h2 = theirs.histogram("repro_h", buckets=buckets)
        for v in (0.5, 5.0):
            h1.observe(v)
        for v in (50.0, 500.0):  # 500 overflows the last bound
            h2.observe(v)
        mine.merge(theirs)
        merged = mine["repro_h"]
        assert merged.count == 4
        assert merged.sum == pytest.approx(555.5)
        assert merged.min == 0.5  # repro: allow=RPR106
        assert merged.max == 500.0  # repro: allow=RPR106
        assert merged.overflow == 1
        assert merged.cumulative_counts() == [1, 2, 3]

    def test_histogram_merge_is_associative_with_observes(self):
        # Merging snapshots must equal observing everything in one registry.
        direct = MetricsRegistry()
        h = direct.histogram("repro_h")
        parts = [MetricsRegistry() for _ in range(3)]
        values = [0.001, 0.1, 3.0, 42.0, 1e6]
        for i, v in enumerate(values):
            h.observe(v)
            parts[i % 3].histogram("repro_h").observe(v)
        merged = MetricsRegistry()
        for part in parts:
            merged.merge(part.as_dict())
        assert merged["repro_h"].as_dict() == direct["repro_h"].as_dict()

    def test_timer_merge(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.timer("repro_t_seconds").observe(0.1)
        theirs.timer("repro_t_seconds").observe(0.3)
        mine.merge(theirs)
        assert mine["repro_t_seconds"].count == 2
        assert mine["repro_t_seconds"].total == pytest.approx(0.4)

    def test_bucket_layout_mismatch_rejected(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.histogram("repro_h", buckets=(1.0, 2.0))
        theirs.histogram("repro_h", buckets=(1.0, 2.0, 3.0))
        with pytest.raises(DimensionError, match="bucket layout"):
            mine.merge(theirs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DimensionError, match="unknown kind"):
            MetricsRegistry().merge({"repro_x": {"kind": "mystery"}})
