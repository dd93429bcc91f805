"""Metrics registry: instrument semantics, exporters, and event bridges."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import run_sort, step_cap
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError
from repro.mesh.machine import mesh_sort
from repro.obs import (
    MetricsObserver,
    MetricsRegistry,
    PotentialObserver,
    record_link_stats,
    use_observer,
)
from repro.zeroone.diagnostics import run_diagnostics


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

    def test_gauge(self):
        g = MetricsRegistry().gauge("repro_g")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3

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
            reg.gauge("repro_c")

    def test_bad_metric_name_rejected(self):
        with pytest.raises(DimensionError):
            MetricsRegistry().counter("bad name!")


class TestExporters:
    def make_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", "runs").inc(3)
        reg.gauge("repro_depth").set(1.5)
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
        assert "# TYPE repro_depth gauge" in text
        assert 'repro_steps_bucket{le="10"} 1' in text
        assert 'repro_steps_bucket{le="+Inf"} 2' in text
        assert "repro_steps_count 2" in text
        assert text.endswith("\n")


class TestMetricsObserver:
    def test_engine_run_tallies(self):
        obs = MetricsObserver(swap_detail=True)
        outcome = run_sort(
            "vectorized", get_algorithm("snake_1"), perm_grid(6), observer=obs
        )
        reg = obs.registry
        t_f = outcome.steps_scalar()
        assert reg["repro_runs_total"].value == 1
        assert reg["repro_steps_total"].value == t_f
        assert reg["repro_run_steps"].count == 1
        assert reg["repro_run_seconds"].count == 1
        assert reg["repro_swaps_total"].value > 0

    def test_engine_swap_detail_is_opt_in(self):
        # Without swap_detail the vectorized backend skips the per-step grid
        # diff, so swap counters stay untouched while the cheap tallies run.
        obs = MetricsObserver()
        outcome = run_sort(
            "vectorized", get_algorithm("snake_1"), perm_grid(6), observer=obs
        )
        reg = obs.registry
        assert reg["repro_steps_total"].value == outcome.steps_scalar()
        assert reg["repro_swaps_total"].value == 0
        assert reg["repro_step_swaps"].count == 0

    def test_batched_run_records_every_trial(self):
        obs = MetricsObserver()
        grids = np.stack([perm_grid(4, seed=s) for s in range(5)])
        run_sort("vectorized", get_algorithm("snake_1"), grids, observer=obs)
        assert obs.registry["repro_run_steps"].count == 5

    def test_mesh_comparisons_counted(self):
        obs = MetricsObserver()
        t_f, machine = mesh_sort(
            get_algorithm("snake_1"), perm_grid(6),
            max_steps=step_cap(6), observer=obs,
        )
        assert obs.registry["repro_comparisons_total"].value == (
            machine.stats.total_comparisons()
        )
        assert obs.registry["repro_swaps_total"].value == (
            machine.stats.total_swaps()
        )


class TestPotentialObserver:
    def test_trajectory_matches_diagnostics(self):
        grid = perm_grid(6, seed=9)
        obs = PotentialObserver()
        with use_observer(obs):
            records = run_diagnostics("snake_1", grid)
        # One trajectory point per cycle event, ending sorted (minimal Z1).
        assert len(obs.trajectory) == len(records) - 1
        assert [v for _, v in obs.trajectory] == [
            rec.potential for rec in records[1:]
        ]

    def test_registry_gauge_tracks_last_value(self):
        reg = MetricsRegistry()
        obs = PotentialObserver(registry=reg)
        with use_observer(obs):
            run_diagnostics("row_major_row_first", perm_grid(6, seed=2))
        assert reg["repro_potential"].value == obs.trajectory[-1][1]
        assert reg["repro_cycle_potential"].count == len(obs.trajectory)

    def test_engine_cycle_events_feed_potentials(self):
        # Without diagnostics: the engine's cycle grids are enough.
        obs = PotentialObserver()
        outcome = run_sort(
            "vectorized", get_algorithm("snake_1"), perm_grid(6), observer=obs
        )
        cycle = len(get_algorithm("snake_1").steps)
        assert len(obs.trajectory) == outcome.steps_scalar() // cycle
        assert all(
            isinstance(v, int) and v >= 0 for _, v in obs.trajectory
        )


class TestLinkStats:
    def test_record_link_stats(self):
        _, machine = mesh_sort(
            get_algorithm("row_major_row_first"), perm_grid(6),
            max_steps=step_cap(6),
        )
        reg = MetricsRegistry()
        record_link_stats(reg, machine.stats)
        assert reg["repro_wire_comparisons_total"].value == (
            machine.stats.total_comparisons()
        )
        assert reg["repro_wire_swaps_total"].value == machine.stats.total_swaps()
        assert reg["repro_wire_traffic"].count == len(machine.stats.comparisons)
        busiest = machine.stats.busiest_links(1)[0][1]
        assert reg["repro_busiest_wire_comparisons"].value == busiest


class TestRegistryMerge:
    """Cross-process aggregation: the campaign coordinator's primitive."""

    def test_counters_add(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.counter("repro_runs_total").inc(2)
        theirs.counter("repro_runs_total").inc(3)
        mine.merge(theirs)
        assert mine["repro_runs_total"].value == 5

    def test_gauge_last_write_wins(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.gauge("repro_g").set(1.0)
        theirs.gauge("repro_g").set(7.0)
        mine.merge(theirs.as_dict())
        assert mine["repro_g"].value == 7.0  # repro: allow=RPR106

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
