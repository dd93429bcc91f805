"""JSONL trace sinks, schema validation, and replayable run manifests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import run_sort
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_experiment
from repro.obs import (
    JsonlTraceSink,
    RunManifest,
    grid_digest,
    load_manifest,
    read_trace,
    replay_command,
    table_digest,
    validate_trace_events,
    write_manifest,
)


def perm_grid(side: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(side * side).reshape(side, side)


class TestGridDigest:
    def test_deterministic_and_dtype_independent(self):
        grid = perm_grid(5)
        assert grid_digest(grid) == grid_digest(grid.astype(np.int32))

    def test_sensitive_to_contents_and_shape(self):
        grid = perm_grid(5)
        other = grid.copy()
        other[0, 0], other[0, 1] = other[0, 1], other[0, 0]
        assert grid_digest(grid) != grid_digest(other)
        assert grid_digest(grid) != grid_digest(grid.reshape(1, 25))

    @pytest.mark.parametrize("kind, digest", [
        ("int8", "eee3ca82a7121731"),
        ("bool", "edf8d0eba7ddfc82"),
        ("float", "f3231e093ddc799e"),
        ("non-contiguous", "b9dbc76a3da23c73"),
        ("batched", "3496565fa1b64ebd"),
    ])
    def test_digests_are_pinned(self, kind, digest):
        """Digests hash the int64 buffer in place; the values are the ones
        hashing ``tobytes()`` gave, so recorded traces stay comparable."""
        base = np.arange(-12, 12).reshape(4, 6)
        grid = {
            "int8": lambda: base.astype(np.int8),
            "bool": lambda: base % 3 == 0,
            "float": lambda: base.astype(np.float64) / 2,
            "non-contiguous": lambda: np.arange(48).reshape(6, 8)[::2, 1::2],
            "batched": lambda: np.arange(2 * 3 * 4 * 4).reshape(2, 3, 4, 4),
        }[kind]()
        assert grid_digest(grid) == digest


class TestJsonlSink:
    def run_traced(self, path, seed=7):
        with JsonlTraceSink(path) as sink:
            run_sort(
                "vectorized", get_algorithm("snake_1"), perm_grid(6, seed=seed), observer=sink
            )
        return read_trace(path)

    def test_events_schema_valid(self, tmp_path):
        events = self.run_traced(tmp_path / "events.jsonl")
        kinds = [ev["event"] for ev in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        steps = [ev for ev in events if ev["event"] == "step"]
        assert steps
        assert all("grid_digest" in ev and "swaps" in ev for ev in steps)
        assert events[0]["algorithm"] == "snake_1"
        assert events[-1]["completed"] is True

    def test_replay_same_seed_identical_digests(self, tmp_path):
        a = self.run_traced(tmp_path / "a.jsonl", seed=13)
        b = self.run_traced(tmp_path / "b.jsonl", seed=13)

        def strip_wall_time(events):
            return [
                {k: v for k, v in ev.items() if k != "wall_time"}
                for ev in events
            ]

        # Identical modulo wall time: same states, same digests, same steps.
        assert strip_wall_time(a) == strip_wall_time(b)

    def test_different_seed_diverges(self, tmp_path):
        a = self.run_traced(tmp_path / "a.jsonl", seed=13)
        b = self.run_traced(tmp_path / "b.jsonl", seed=14)
        assert [ev.get("grid_digest") for ev in a] != [
            ev.get("grid_digest") for ev in b
        ]

    def test_closed_sink_raises(self, tmp_path):
        from repro.obs import RunEnd

        sink = JsonlTraceSink(tmp_path / "events.jsonl")
        sink.close()
        with pytest.raises(DimensionError):
            sink.on_run_end(RunEnd(wall_time=0.0))

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "events.jsonl"
        self.run_traced(path)
        assert path.exists()

    def test_cycle_events_reuse_their_steps_digest(self, tmp_path, monkeypatch):
        import repro.obs.trace as trace

        calls = []
        monkeypatch.setattr(trace, "grid_digest", lambda grid: calls.append(1) or "d")
        events = self.run_traced(tmp_path / "events.jsonl")
        steps = [ev for ev in events if ev["event"] == "step"]
        assert any(ev["event"] == "cycle" for ev in events)
        assert len(calls) == len(steps)

    def test_cycle_digest_is_its_steps_digest(self, tmp_path):
        events = self.run_traced(tmp_path / "events.jsonl")
        at = {ev["t"]: ev["grid_digest"] for ev in events if ev["event"] == "step"}
        cycles = [ev for ev in events if ev["event"] == "cycle"]
        assert cycles
        for ev in cycles:
            assert ev["grid_digest"] == at[ev["t"]]


class TestGzipTrace:
    def run_traced(self, path, seed=7):
        with JsonlTraceSink(path) as sink:
            run_sort(
                "vectorized", get_algorithm("snake_1"), perm_grid(6, seed=seed), observer=sink
            )
        return read_trace(path)

    def test_gz_path_writes_gzip(self, tmp_path):
        path = tmp_path / "events.jsonl.gz"
        self.run_traced(path)
        # gzip magic bytes: the file really is compressed, not just renamed.
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_gz_trace_replays_identically_to_plain(self, tmp_path):
        plain = self.run_traced(tmp_path / "events.jsonl")
        gz = self.run_traced(tmp_path / "events.jsonl.gz")

        def stable(events):
            # wall_time is the one field that legitimately differs between
            # two executions; everything else (digests included) must not.
            return [
                {k: v for k, v in ev.items() if k != "wall_time"}
                for ev in events
            ]

        assert stable(gz) == stable(plain)

    def test_gz_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "events.jsonl.gz"
        events = self.run_traced(path)
        assert path.exists() and events


class TestSchemaValidation:
    def good(self):
        return [
            {"v": 1, "seq": 0, "event": "run_start",
             "executor": "engine", "algorithm": "snake_1", "side": 4},
            {"v": 1, "seq": 1, "event": "step", "t": 1},
            {"v": 1, "seq": 2, "event": "run_end", "wall_time": 0.1},
        ]

    def test_good_passes(self):
        validate_trace_events(self.good())

    def test_older_step_records_with_comparisons_still_load(self):
        events = self.good()
        events[1].update(swaps=3, comparisons=12)
        validate_trace_events(events)

    @pytest.mark.parametrize("mutate,msg", [
        (lambda evs: evs[0].update(v=99), "schema version"),
        (lambda evs: evs[1].update(seq=5), "sequence"),
        (lambda evs: evs[1].update(event="explode"), "unknown event"),
        (lambda evs: evs[1].update(bogus=1), "unknown fields"),
        (lambda evs: evs[1].pop("t"), "missing fields"),
    ])
    def test_bad_rejected(self, mutate, msg):
        events = self.good()
        mutate(events)
        with pytest.raises(DimensionError, match=msg):
            validate_trace_events(events)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = RunManifest(
            kind="experiment", exp_id="E-C1", seed=1, scale="quick",
            result_digest="abc", argv=["E-C1"],
        )
        path = write_manifest(tmp_path / "m" / "manifest.json", manifest)
        loaded = load_manifest(path)
        assert loaded == manifest
        # File is plain JSON for outside tooling.
        assert json.loads(path.read_text())["exp_id"] == "E-C1"

    def test_bad_kind_rejected(self):
        with pytest.raises(DimensionError):
            RunManifest(kind="banana")

    def test_bad_schema_version_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        data = RunManifest(kind="run").as_dict()
        data["schema_version"] = 42
        path.write_text(json.dumps(data))
        with pytest.raises(DimensionError):
            load_manifest(path)

    def test_replay_command(self):
        manifest = RunManifest(
            kind="experiment", exp_id="E-T2", seed=99, scale="full"
        )
        assert replay_command(manifest) == "repro run E-T2 --scale full --seed 99"
        with pytest.raises(DimensionError):
            replay_command(RunManifest(kind="run"))

    def test_manifest_replays_to_same_digest(self):
        """The reproducibility contract: (seed, scale) pins the table."""
        cfg = ExperimentConfig(scale="quick", seed=424242)
        digest = table_digest(run_experiment("E-C1", cfg))
        manifest = RunManifest(
            kind="experiment", exp_id="E-C1",
            seed=cfg.seed, scale=cfg.scale, result_digest=digest,
        )
        replayed = run_experiment(
            manifest.exp_id,
            ExperimentConfig(scale=manifest.scale, seed=manifest.seed),
        )
        assert table_digest(replayed) == manifest.result_digest
