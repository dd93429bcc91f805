"""Content-addressed result store: durability, corruption, read-only hits."""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.errors import StoreError
from repro.experiments.sampling import sample
from repro.obs import (
    MetricsObserver,
    MetricsRegistry,
    RecordingObserver,
    SpanProfiler,
    use_observer,
    use_profiler,
)
from repro.store import (
    LocalResultStore,
    decode_result,
    encode_result,
    payload_integrity,
    resolve_store,
)

SPEC = CampaignSpec("snake_1", side=6, trials=40, seed=99, shard_size=8)


def _payload(values=(1, 2, 3), **meta) -> dict:
    base = {"algorithm": "snake_1", "side": 6}
    base.update(meta)
    return {"values": list(values), "dtype": "int64", "meta": base}


class TestCodec:
    def test_round_trip_is_bit_identical(self):
        result = run_campaign(SPEC, workers=1)
        decoded = decode_result(encode_result(result))
        np.testing.assert_array_equal(decoded.values, result.values)
        assert decoded.values.dtype == result.values.dtype
        assert decoded.values_digest == result.values_digest
        assert decoded.stats.mean == result.stats.mean

    def test_float_payload_round_trips_exactly(self):
        spec = CampaignSpec(
            "snake_1", side=4, trials=24, seed=3, shard_size=8,
            kind="statistic", statistic=np.mean, num_steps=2,
        )
        result = run_campaign(spec, workers=1)
        assert result.values.dtype == np.float64
        # Through actual JSON text, not just python dict round trip.
        blob = json.dumps(encode_result(result))
        decoded = decode_result(json.loads(blob))
        np.testing.assert_array_equal(decoded.values, result.values)
        assert decoded.values_digest == result.values_digest

    def test_partial_result_refused(self, tmp_path):
        partial = run_campaign(
            SPEC, workers=1, checkpoint_dir=tmp_path, max_shards=2
        )
        with pytest.raises(StoreError, match="partial"):
            encode_result(partial)

    def test_stats_recomputed_not_stored(self):
        result = run_campaign(SPEC, workers=1)
        payload = encode_result(result)
        assert "stats" not in payload

    def test_integrity_changes_on_any_bit(self):
        payload = _payload()
        digest = payload_integrity(payload)
        tweaked = _payload(values=(1, 2, 4))
        assert payload_integrity(tweaked) != digest

    def test_undecodable_payload_raises_store_error(self):
        with pytest.raises(StoreError, match="undecodable"):
            decode_result({"values": [1], "dtype": "not-a-dtype", "meta": {}})


class TestLocalStore:
    def test_miss_then_put_then_hit(self, tmp_path):
        store = LocalResultStore(tmp_path)
        assert store.get("ab12cd34ef567890") is None
        store.put("ab12cd34ef567890", _payload())
        assert store.get("ab12cd34ef567890") == _payload()
        assert "ab12cd34ef567890" in store
        assert store.fingerprints() == ["ab12cd34ef567890"]

    def test_layout_sharded_by_prefix(self, tmp_path):
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload())
        assert (tmp_path / "ab" / "ab12cd34ef567890" / "result.json").exists()

    def test_manifest_written_alongside(self, tmp_path):
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload(), manifest={"kind": "campaign"})
        manifest = tmp_path / "ab" / "ab12cd34ef567890" / "manifest.json"
        assert json.loads(manifest.read_text())["kind"] == "campaign"

    def test_corrupted_payload_quarantined_as_miss(self, tmp_path):
        """Bit rot degrades to a cache miss — never an error, never a wrong
        value served."""
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload())
        path = store.result_path("ab12cd34ef567890")
        path.write_text(path.read_text().replace("1, 2, 3", "1, 2, 4"))
        rec = RecordingObserver()
        with use_observer(rec):
            assert store.get("ab12cd34ef567890") is None
        assert [e.op for e in rec.store_events] == ["quarantine", "miss"]
        assert "ab12cd34ef567890" not in store
        quarantined = list((tmp_path / "quarantine").glob("*.json"))
        assert len(quarantined) == 1

    def test_wrong_fingerprint_quarantined(self, tmp_path):
        """An entry filed under the wrong key (e.g. a manual rename) is
        corruption, not a hit."""
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload())
        src = store.entry_dir("ab12cd34ef567890")
        dst = store.entry_dir("ff99aa11bb22cc33")
        dst.parent.mkdir(parents=True, exist_ok=True)
        src.rename(dst)
        assert store.get("ff99aa11bb22cc33") is None

    def test_garbage_file_quarantined(self, tmp_path):
        store = LocalResultStore(tmp_path)
        path = store.result_path("ab12cd34ef567890")
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert store.get("ab12cd34ef567890") is None
        assert list((tmp_path / "quarantine").glob("*.json"))

    def test_torn_write_tmp_file_is_ignored_and_swept(self, tmp_path):
        """A writer killed mid-put leaves only a tmp file: reads miss, and
        the next put of that fingerprint sweeps the debris."""
        store = LocalResultStore(tmp_path)
        entry = store.entry_dir("ab12cd34ef567890")
        entry.mkdir(parents=True)
        torn = entry / "result.json.tmp-9999"
        torn.write_text('{"half an envel')
        assert store.get("ab12cd34ef567890") is None
        assert torn.exists()  # a miss does not mutate the tree
        store.put("ab12cd34ef567890", _payload())
        assert not torn.exists()
        assert store.get("ab12cd34ef567890") == _payload()

    def test_repeat_corruption_never_overwrites_quarantine(self, tmp_path):
        store = LocalResultStore(tmp_path)
        for _ in range(2):
            store.put("ab12cd34ef567890", _payload())
            path = store.result_path("ab12cd34ef567890")
            path.write_text("{not json")
            assert store.get("ab12cd34ef567890") is None
        names = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
        assert names == ["ab12cd34ef567890-1.json", "ab12cd34ef567890-2.json"]

    def test_contains_reports_no_store_events(self, tmp_path):
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload())
        rec = RecordingObserver()
        with use_observer(rec):
            assert "ab12cd34ef567890" in store
            assert "ff99aa11bb22cc33" not in store
        assert rec.store_events == []

    def test_fingerprints_list_entries_only(self, tmp_path):
        """Quarantined files share the root but are never counted as
        entries."""
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload())
        store.put("ff99aa11bb22cc33", _payload())
        store.result_path("ff99aa11bb22cc33").write_text("{not json")
        assert store.get("ff99aa11bb22cc33") is None
        assert list((tmp_path / "quarantine").iterdir())
        assert store.fingerprints() == ["ab12cd34ef567890"]

    def test_delete_drops_the_manifest_too(self, tmp_path):
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload(), manifest={"kind": "campaign"})
        assert store.delete("ab12cd34ef567890") is True
        assert not store.entry_dir("ab12cd34ef567890").exists()

    def test_delete(self, tmp_path):
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload())
        assert store.delete("ab12cd34ef567890") is True
        assert store.delete("ab12cd34ef567890") is False
        assert store.get("ab12cd34ef567890") is None

    def test_put_is_idempotent_overwrite(self, tmp_path):
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload())
        store.put("ab12cd34ef567890", _payload(values=(7, 8, 9)))
        assert store.get("ab12cd34ef567890") == _payload(values=(7, 8, 9))


def _tree_snapshot(root) -> dict[str, tuple[bytes, int]]:
    """``{relative path: (bytes, st_mtime_ns)}`` of every file under ``root``."""
    return {
        str(path.relative_to(root)): (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestReadOnlyHits:
    def test_hit_leaves_every_file_unchanged(self, tmp_path):
        """A hit only reads: same file names, bytes and mtimes after it."""
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload(), manifest={"kind": "campaign"})
        store.put("ff99aa11bb22cc33", _payload(values=(4, 5)))
        before = _tree_snapshot(tmp_path)
        for _ in range(3):
            assert LocalResultStore(tmp_path).get("ab12cd34ef567890") == _payload()
        assert _tree_snapshot(tmp_path) == before

    def test_miss_writes_nothing(self, tmp_path):
        root = tmp_path / "store"
        assert LocalResultStore(root).get("ab12cd34ef567890") is None
        assert not root.exists()
        store = LocalResultStore(root)
        store.put("ff99aa11bb22cc33", _payload())
        before = _tree_snapshot(root)
        assert store.get("ab12cd34ef567890") is None
        assert _tree_snapshot(root) == before

    def test_hit_reports_only_a_hit_event(self, tmp_path):
        store = LocalResultStore(tmp_path)
        store.put("ab12cd34ef567890", _payload())
        rec = RecordingObserver()
        with use_observer(rec):
            assert store.get("ab12cd34ef567890") == _payload()
        assert [(e.op, e.fingerprint) for e in rec.store_events] == [
            ("hit", "ab12cd34ef567890")
        ]

    def test_sample_hit_leaves_every_file_unchanged(self, tmp_path):
        kwargs = dict(side=6, trials=40, seed=99, shard_size=8, store=tmp_path)
        cold = sample("snake_1", **kwargs)
        before = _tree_snapshot(tmp_path)
        warm = sample("snake_1", **kwargs)
        assert warm.meta["store"]["hit"] is True
        assert warm.values_digest == cold.values_digest
        assert _tree_snapshot(tmp_path) == before

    def test_cache_hit_runs_zero_kernel_steps(self, tmp_path):
        """A warm repeat performs no kernel work — proven by the metrics
        stream (no runs, no steps) and the span tree (a store lookup, no
        shard execution)."""
        kwargs = dict(side=6, trials=40, seed=99, shard_size=8, store=tmp_path)
        sample("snake_1", **kwargs)

        registry = MetricsRegistry()
        profiler = SpanProfiler()
        with use_observer(MetricsObserver(registry)), use_profiler(profiler):
            warm = sample("snake_1", **kwargs)
        assert warm.meta["store"]["hit"] is True
        counters = registry.as_dict()
        assert counters["repro_service_store_hits_total"]["value"] == 1
        assert counters["repro_runs_total"]["value"] == 0
        assert counters["repro_steps_total"]["value"] == 0
        assert counters["repro_campaigns_total"]["value"] == 0
        names = _span_names(profiler.tree())
        assert "store_lookup" in names
        assert not any("campaign" in name or "shard" in name for name in names)

    def test_cold_vs_warm_identical_across_worker_counts(self, tmp_path):
        """Store hits serve the fingerprint's values for ANY worker count —
        the fingerprint excludes execution knobs by design."""
        kwargs = dict(side=6, trials=40, seed=99, shard_size=8, store=tmp_path)
        cold = sample("snake_1", workers=1, **kwargs)
        assert cold.meta["store"] == {
            "hit": False,
            "stored": True,
            "store": f"local:{tmp_path}",
            "fingerprint": SPEC.fingerprint,
        }
        warm = sample("snake_1", workers=3, **kwargs)
        assert warm.meta["store"]["hit"] is True
        np.testing.assert_array_equal(warm.values, cold.values)
        assert warm.values_digest == cold.values_digest


def _span_names(nodes: list[dict]) -> list[str]:
    names: list[str] = []
    for node in nodes:
        names.append(node["name"])
        names.extend(_span_names(node.get("children", [])))
    return names


class TestConcurrentPut:
    def test_peer_sweep_between_tmp_write_and_rename(self, tmp_path, monkeypatch):
        """A peer's put of the same fingerprint runs its tmp sweep while the
        first writer sits between its tmp write and its rename.  The live
        writer's tmp file must survive the sweep, so the first put still
        lands and reads back as a hit."""
        fp = "ab12cd34ef567890"
        first, peer = LocalResultStore(tmp_path), LocalResultStore(tmp_path)
        real_replace = os.replace
        peer_puts: list = []
        started = threading.Event()

        def replace_after_peer_put(src, dst):
            if not started.is_set():
                started.set()
                # The peer is another live writer: its own thread.
                writer = threading.Thread(
                    target=lambda: peer_puts.append(
                        peer.put(fp, _payload(values=(7, 8, 9)))
                    )
                )
                writer.start()
                writer.join(timeout=30.0)
                assert not writer.is_alive()
            return real_replace(src, dst)

        monkeypatch.setattr("repro.store.local.os.replace", replace_after_peer_put)
        first.put(fp, _payload())
        assert len(peer_puts) == 1  # the peer's put ran, and succeeded
        monkeypatch.setattr("repro.store.local.os.replace", real_replace)
        assert first.get(fp) == _payload()
        assert not list(first.entry_dir(fp).glob("*.tmp-*"))


    def test_threaded_puts_of_one_fingerprint_all_land(self, tmp_path):
        """Writers on separate store instances racing one fingerprint all
        succeed, and the entry left behind is one of their payloads."""
        fp = "ab12cd34ef567890"
        barrier = threading.Barrier(6)
        errors: list[BaseException] = []

        def writer(i: int) -> None:
            store = LocalResultStore(tmp_path)
            barrier.wait()
            try:
                for _ in range(5):
                    store.put(fp, _payload(values=(i,)))
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []
        stored = LocalResultStore(tmp_path).get(fp)
        assert stored in [_payload(values=(i,)) for i in range(6)]
        assert not list(LocalResultStore(tmp_path).entry_dir(fp).glob("*.tmp-*"))


def _dead_pid() -> int:
    pid = 2 ** 22 + os.getpid() % 1000
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except OSError:
            pass
        pid += 1


class TestTmpSweep:
    FP = "ab12cd34ef567890"

    def _debris(self, store: LocalResultStore, name: str):
        entry = store.entry_dir(self.FP)
        entry.mkdir(parents=True, exist_ok=True)
        path = entry / name
        path.write_text('{"half an envel')
        return path

    def test_tmp_name_carries_pid_and_thread(self, tmp_path, monkeypatch):
        store = LocalResultStore(tmp_path)
        renamed: list[str] = []
        real_replace = os.replace

        def spy(src, dst):
            renamed.append(os.path.basename(src))
            return real_replace(src, dst)

        monkeypatch.setattr("repro.store.local.os.replace", spy)
        store.put(self.FP, _payload(), manifest={"kind": "campaign"})
        suffix = f"tmp-{os.getpid()}-{threading.get_ident()}"
        assert renamed == [f"result.json.{suffix}", f"manifest.json.{suffix}"]

    def test_dead_writer_debris_swept(self, tmp_path):
        store = LocalResultStore(tmp_path)
        dead = _dead_pid()
        result_tmp = self._debris(store, f"result.json.tmp-{dead}-1")
        manifest_tmp = self._debris(store, f"manifest.json.tmp-{dead}-1")
        store.put(self.FP, _payload())
        assert not result_tmp.exists()
        assert not manifest_tmp.exists()
        assert store.get(self.FP) == _payload()

    def test_live_writer_tmp_survives_a_put(self, tmp_path):
        """Another thread of a live process may be mid-put: its tmp file
        is left alone."""
        store = LocalResultStore(tmp_path)
        live = self._debris(store, f"result.json.tmp-{os.getpid()}-1")
        store.put(self.FP, _payload())
        assert live.exists()
        assert store.get(self.FP) == _payload()

    def test_tmp_without_a_pid_is_swept(self, tmp_path):
        store = LocalResultStore(tmp_path)
        stray = self._debris(store, "result.json.tmp-abc")
        store.put(self.FP, _payload())
        assert not stray.exists()


class TestResolve:
    def test_resolve_passthrough_and_paths(self, tmp_path):
        store = LocalResultStore(tmp_path)
        assert resolve_store(store) is store
        assert isinstance(resolve_store(tmp_path), LocalResultStore)
        assert isinstance(resolve_store(str(tmp_path)), LocalResultStore)

    def test_resolved_store_describes_its_root(self, tmp_path):
        assert resolve_store(tmp_path).describe() == f"local:{tmp_path}"
        assert resolve_store(str(tmp_path)).root == tmp_path

    def test_resolve_rejects_garbage(self):
        with pytest.raises(StoreError, match="store must be"):
            resolve_store(123)
        with pytest.raises(StoreError, match="store must be"):
            resolve_store("")
