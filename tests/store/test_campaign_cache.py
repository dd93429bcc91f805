"""The result store as campaigns use it: what a hit serves, what keys it,
how corrupt entries and tmp debris are handled, and the ``--store`` CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backends import available_backends
from repro.campaign import CampaignSpec
from repro.campaign.execution import ExecutionOptions
from repro.errors import StoreError
from repro.experiments.cli import main
from repro.experiments.sampling import sample
from repro.obs import MetricsObserver, MetricsRegistry, RecordingObserver, use_observer
from repro.store import LocalResultStore, payload_integrity, resolve_store
from repro.store.local import _pid_alive
from repro.zeroone import column_zeros, y1_statistic, z1_statistic, z2_statistic

#: Every family that sorts at side 4, spelled as ``sample`` accepts it.
FAMILIES = [
    "row_major_row_first",
    "row_major_col_first",
    "snake_1",
    "snake_2",
    "snake_3",
    "shearsort",
    "odd_even",
    "random_network[seed=3]",
]

BASE = dict(side=4, trials=16, seed=5, shard_size=8)


def _assert_same_result(got, want) -> None:
    """Bit-identical values (dtype included) and the summary they imply."""
    assert got.values.dtype == want.values.dtype
    np.testing.assert_array_equal(got.values, want.values)
    assert got.values_digest == want.values_digest
    assert got.stats.mean == want.stats.mean
    assert got.stats.count == want.stats.count


def _quarantined(root: Path) -> list[Path]:
    qdir = root / "quarantine"
    return sorted(qdir.iterdir()) if qdir.exists() else []


class TestHitsServeTheFreshValues:
    """A store hit returns exactly what the same campaign computes cold."""

    @pytest.mark.parametrize("input_kind", ["permutation", "zero_one"])
    @pytest.mark.parametrize("algorithm", FAMILIES)
    def test_sort_steps_hit_equals_a_fresh_campaign(
        self, tmp_path, algorithm, input_kind
    ):
        kwargs = dict(BASE, input_kind=input_kind)
        fresh = sample(algorithm, **kwargs)
        cold = sample(algorithm, store=tmp_path, **kwargs)
        warm = sample(algorithm, store=tmp_path, **kwargs)
        assert cold.meta["store"]["hit"] is False
        assert cold.meta["store"]["stored"] is True
        assert warm.meta["store"]["hit"] is True
        _assert_same_result(cold, fresh)
        _assert_same_result(warm, fresh)
        assert warm.meta["store"]["fingerprint"] == CampaignSpec(
            algorithm, input_kind=input_kind, **BASE
        ).fingerprint

    @pytest.mark.parametrize("num_steps", [1, 3])
    @pytest.mark.parametrize(
        "statistic", [z1_statistic, z2_statistic, y1_statistic, column_zeros]
    )
    def test_statistic_hit_equals_a_fresh_campaign(self, tmp_path, statistic, num_steps):
        kwargs = dict(
            BASE, side=6, kind="statistic", statistic=statistic, num_steps=num_steps
        )
        fresh = sample("snake_1", **kwargs)
        sample("snake_1", store=tmp_path, **kwargs)
        warm = sample("snake_1", store=tmp_path, **kwargs)
        assert warm.meta["store"]["hit"] is True
        assert warm.values.dtype == np.float64
        _assert_same_result(warm, fresh)

    def test_hit_meta_is_the_producers_meta(self, tmp_path):
        """The stored meta is the cold run's, minus its run-local store key."""
        cold = sample("snake_2", store=tmp_path, **BASE)
        warm = sample("snake_2", store=tmp_path, **BASE)
        def strip(meta: dict) -> dict:
            return {k: v for k, v in meta.items() if k != "store"}

        assert strip(warm.meta) == json.loads(json.dumps(strip(cold.meta)))
        assert set(warm.meta["store"]) == {"hit", "store", "fingerprint"}


#: One value-determining change per case; each must key a new entry.
VALUE_CHANGES = {
    "side": dict(side=6),
    "trials": dict(trials=24),
    "seed": dict(seed=6),
    "seed_tuple": dict(seed=(5, 1)),
    "input_kind": dict(input_kind="zero_one"),
    "algorithm": dict(algorithm="snake_2"),
    "shard_size": dict(shard_size=4),
    "max_steps": dict(max_steps=500),
}


class TestCacheKey:
    @pytest.mark.parametrize("change", list(VALUE_CHANGES), ids=list(VALUE_CHANGES))
    def test_value_determining_change_is_a_miss(self, tmp_path, change):
        first = dict(BASE, algorithm="snake_1")
        second = dict(first, **VALUE_CHANGES[change])
        a = sample(store=tmp_path, **first)
        b = sample(store=tmp_path, **second)
        assert b.meta["store"]["hit"] is False
        assert a.meta["store"]["fingerprint"] != b.meta["store"]["fingerprint"]
        assert LocalResultStore(tmp_path).fingerprints() == sorted(
            [a.meta["store"]["fingerprint"], b.meta["store"]["fingerprint"]]
        )
        # Both entries now serve their own values.
        _assert_same_result(sample(store=tmp_path, **first), a)
        _assert_same_result(sample(store=tmp_path, **second), b)

    @pytest.mark.parametrize("backend", available_backends())
    def test_backend_is_not_part_of_the_key(self, tmp_path, backend):
        cold = sample("snake_1", store=tmp_path, **BASE)
        warm = sample("snake_1", store=tmp_path, backend=backend, **BASE)
        assert warm.meta["store"]["hit"] is True
        _assert_same_result(warm, cold)
        # ...and the backend really computes the same values cold.
        _assert_same_result(sample("snake_1", backend=backend, **BASE), cold)

    @pytest.mark.parametrize(
        "knob",
        [dict(workers=2), dict(batch_size=3), dict(retries=0)],
        ids=["workers", "batch_size", "retries"],
    )
    def test_execution_knob_is_not_part_of_the_key(self, tmp_path, knob):
        cold = sample("snake_3", store=tmp_path, **BASE)
        warm = sample("snake_3", store=tmp_path, **BASE, **knob)
        assert warm.meta["store"]["hit"] is True
        _assert_same_result(warm, cold)
        assert len(LocalResultStore(tmp_path).fingerprints()) == 1

    def test_hit_skips_the_checkpoint(self, tmp_path):
        """A hit returns before any checkpoint file is opened."""
        store, ckpt = tmp_path / "store", tmp_path / "ckpt"
        cold = sample("snake_1", store=store, **BASE)
        warm = sample("snake_1", store=store, checkpoint_dir=ckpt, **BASE)
        assert warm.meta["store"]["hit"] is True
        _assert_same_result(warm, cold)
        assert not ckpt.exists()

    def test_store_path_and_instance_share_entries(self, tmp_path):
        spec = dict(side=4, trials=16, seed=5)
        cold = sample(
            "snake_1", execution=ExecutionOptions(shard_size=8, store=str(tmp_path)), **spec
        )
        warm = sample(
            "snake_1",
            execution=ExecutionOptions(shard_size=8, store=LocalResultStore(tmp_path)),
            **spec,
        )
        assert warm.meta["store"]["hit"] is True
        assert warm.meta["store"]["store"] == cold.meta["store"]["store"]
        _assert_same_result(warm, cold)

    def test_fingerprints_list_every_distinct_campaign(self, tmp_path):
        specs = [dict(BASE, algorithm=name) for name in FAMILIES[:5]]
        fps = [sample(store=tmp_path, **spec).meta["store"]["fingerprint"] for spec in specs]
        for spec in specs:  # repeats add nothing
            sample(store=tmp_path, **spec)
        assert LocalResultStore(tmp_path).fingerprints() == sorted(fps)


class TestPartialCampaigns:
    def test_partial_campaign_is_not_stored(self, tmp_path):
        store, ckpt = tmp_path / "store", tmp_path / "ckpt"
        partial = sample(
            "snake_1", store=store, checkpoint_dir=ckpt, max_shards=1, **BASE
        )
        assert partial.complete is False
        assert partial.meta["store"]["stored"] is False
        assert LocalResultStore(store).fingerprints() == []

    def test_resumed_campaign_is_stored_and_then_hits(self, tmp_path):
        store, ckpt = tmp_path / "store", tmp_path / "ckpt"
        sample("snake_1", store=store, checkpoint_dir=ckpt, max_shards=1, **BASE)
        done = sample("snake_1", store=store, checkpoint_dir=ckpt, resume=True, **BASE)
        assert done.meta["store"] == {
            "hit": False,
            "stored": True,
            "store": f"local:{store}",
            "fingerprint": CampaignSpec("snake_1", **BASE).fingerprint,
        }
        _assert_same_result(done, sample("snake_1", **BASE))
        warm = sample("snake_1", store=store, **BASE)
        assert warm.meta["store"]["hit"] is True
        _assert_same_result(warm, done)


def _envelope(path: Path) -> dict:
    return json.loads(path.read_text())


def _rewrite(path: Path, envelope: dict) -> None:
    path.write_text(json.dumps(envelope, sort_keys=True))


def _edit(fn):
    """A corruption that edits the parsed envelope in place."""

    def corrupt(path: Path) -> None:
        envelope = _envelope(path)
        fn(envelope)
        _rewrite(path, envelope)

    return corrupt


def _bump_first_value(envelope: dict) -> None:
    envelope["payload"]["values"][0] += 1


#: Ways a ``result.json`` goes bad; every one must read as a quarantined miss.
CORRUPTIONS = {
    "truncated": lambda p: p.write_text(p.read_text()[: len(p.read_text()) // 2]),
    "empty": lambda p: p.write_text(""),
    "not_json": lambda p: p.write_text("this is not json"),
    "not_utf8": lambda p: p.write_bytes(b"\xff\xfe\x00\x9cgarbage"),
    "json_list": lambda p: p.write_text("[]"),
    "json_null": lambda p: p.write_text("null"),
    "wrong_format": _edit(lambda e: e.update(format="someone-elses-cache")),
    "wrong_schema": _edit(lambda e: e.update(schema_version=e["schema_version"] + 1)),
    "payload_not_a_dict": _edit(lambda e: e.update(payload=[1, 2, 3])),
    "integrity_missing": _edit(lambda e: e.pop("integrity")),
    "integrity_not_a_string": _edit(lambda e: e.update(integrity=12345)),
    "integrity_altered": _edit(lambda e: e.update(integrity="0" * 32)),
    "fingerprint_missing": _edit(lambda e: e.pop("fingerprint")),
    "fingerprint_of_another_entry": _edit(lambda e: e.update(fingerprint="0" * 16)),
    "value_changed": _edit(_bump_first_value),
    "meta_edited": _edit(lambda e: e["payload"]["meta"].update(side=99)),
}


class TestCorruptEntriesRecompute:
    @pytest.mark.parametrize("how", list(CORRUPTIONS), ids=list(CORRUPTIONS))
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path, how):
        cold = sample("snake_1", store=tmp_path, **BASE)
        fp = cold.meta["store"]["fingerprint"]
        store = LocalResultStore(tmp_path)
        path = store.result_path(fp)
        CORRUPTIONS[how](path)
        bad_bytes = path.read_bytes()

        rec = RecordingObserver()
        with use_observer(rec):
            again = sample("snake_1", store=tmp_path, **BASE)
        assert [e.op for e in rec.store_events] == ["quarantine", "miss", "put"]
        assert again.meta["store"]["hit"] is False
        assert again.meta["store"]["stored"] is True
        _assert_same_result(again, cold)
        (moved,) = _quarantined(tmp_path)
        assert moved.name == f"{fp}-1.json"
        assert moved.read_bytes() == bad_bytes  # kept for forensics

        warm = sample("snake_1", store=tmp_path, **BASE)
        assert warm.meta["store"]["hit"] is True
        _assert_same_result(warm, cold)

    def test_intact_but_undecodable_payload_is_recomputed(self, tmp_path):
        """A payload with a valid hash that ``decode_result`` refuses (say,
        a foreign writer's dtype) is a miss: recomputed and overwritten."""
        cold = sample("snake_1", store=tmp_path, **BASE)
        store = LocalResultStore(tmp_path)
        fp = cold.meta["store"]["fingerprint"]
        envelope = _envelope(store.result_path(fp))
        envelope["payload"]["dtype"] = "not-a-dtype"
        envelope["integrity"] = payload_integrity(envelope["payload"])
        _rewrite(store.result_path(fp), envelope)

        again = sample("snake_1", store=tmp_path, **BASE)
        assert again.meta["store"]["hit"] is False
        assert again.meta["store"]["stored"] is True
        _assert_same_result(again, cold)
        assert store.get(fp)["dtype"] == "int64"
        assert _quarantined(tmp_path) == []

    def test_a_deleted_entry_is_recomputed(self, tmp_path):
        cold = sample("snake_1", store=tmp_path, **BASE)
        store = LocalResultStore(tmp_path)
        assert store.delete(cold.meta["store"]["fingerprint"]) is True
        again = sample("snake_1", store=tmp_path, **BASE)
        assert again.meta["store"]["hit"] is False
        _assert_same_result(again, cold)


class TestStoreCounters:
    """The ``repro_service_store_*`` counters tally each lookup's outcome."""

    COUNTERS = ("hits", "misses", "puts", "quarantined")

    def _counts(self, tmp_path) -> dict[str, int]:
        registry = MetricsRegistry()
        with use_observer(MetricsObserver(registry)):
            sample("snake_1", store=tmp_path, **BASE)
        data = registry.as_dict()
        return {
            name: data[f"repro_service_store_{name}_total"]["value"]
            for name in self.COUNTERS
        }

    def test_cold_run_counts_a_miss_and_a_put(self, tmp_path):
        assert self._counts(tmp_path) == dict(hits=0, misses=1, puts=1, quarantined=0)

    def test_warm_run_counts_one_hit(self, tmp_path):
        sample("snake_1", store=tmp_path, **BASE)
        assert self._counts(tmp_path) == dict(hits=1, misses=0, puts=0, quarantined=0)

    def test_corrupt_entry_counts_quarantine_miss_and_put(self, tmp_path):
        fp = sample("snake_1", store=tmp_path, **BASE).meta["store"]["fingerprint"]
        LocalResultStore(tmp_path).result_path(fp).write_text("{")
        assert self._counts(tmp_path) == dict(hits=0, misses=1, puts=1, quarantined=1)


def _dead_pid() -> int:
    """A pid no live process holds: a child that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestPidAlive:
    def test_own_pid_is_alive(self):
        assert _pid_alive(os.getpid()) is True

    def test_parent_pid_is_alive(self):
        assert _pid_alive(os.getppid()) is True

    def test_reaped_child_is_dead(self):
        assert _pid_alive(_dead_pid()) is False

    def test_running_child_is_alive_until_reaped(self):
        child = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                                 stdin=subprocess.PIPE)
        try:
            assert _pid_alive(child.pid) is True
        finally:
            child.communicate(b"")
        assert _pid_alive(child.pid) is False


#: ``(tmp file name, swept by a put?)``; ``{dead}``/``{live}``/``{parent}``
#: are filled with a reaped pid, this process and its parent.
SWEEP_CASES = {
    "dead_result_tmp": ("result.json.tmp-{dead}-140001", True),
    "dead_manifest_tmp": ("manifest.json.tmp-{dead}-140001", True),
    "dead_without_thread_id": ("result.json.tmp-{dead}", True),
    "live_result_tmp": ("result.json.tmp-{live}-1", False),
    "live_manifest_tmp": ("manifest.json.tmp-{live}-1", False),
    "parent_process_tmp": ("result.json.tmp-{parent}-7", False),
    "empty_pid": ("result.json.tmp-", True),
    "non_numeric_pid": ("result.json.tmp-x12-3", True),
    "not_a_tmp_file": ("notes.txt", False),
}


class TestSweepByName:
    FP = "ab12cd34ef567890"

    @pytest.mark.parametrize("case", list(SWEEP_CASES), ids=list(SWEEP_CASES))
    def test_put_sweeps_only_dead_writers_debris(self, tmp_path, case):
        template, swept = SWEEP_CASES[case]
        name = template.format(dead=_dead_pid(), live=os.getpid(), parent=os.getppid())
        store = LocalResultStore(tmp_path)
        entry = store.entry_dir(self.FP)
        entry.mkdir(parents=True)
        (entry / name).write_text("debris")
        payload = {"values": [1, 2], "dtype": "int64", "meta": {}}
        store.put(self.FP, payload)
        assert (entry / name).exists() is not swept
        assert store.get(self.FP) == payload

    def test_sweep_touches_only_the_entry_being_put(self, tmp_path):
        store = LocalResultStore(tmp_path)
        other = store.entry_dir("ff99aa11bb22cc33")
        other.mkdir(parents=True)
        debris = other / f"result.json.tmp-{_dead_pid()}-1"
        debris.write_text("debris")
        store.put(self.FP, {"values": [1], "dtype": "int64", "meta": {}})
        assert debris.exists()


_WRITER = textwrap.dedent(
    """
    import sys
    from repro.store import LocalResultStore
    root, tag, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    store = LocalResultStore(root)
    for i in range(rounds):
        store.put("ab12cd34ef567890",
                  {"values": [tag] * 64, "dtype": "int64", "meta": {"i": i}})
    """
)


def _spawn_writer(root: Path, tag: int, rounds: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(root), str(tag), str(rounds)], env=env
    )


class TestCrossProcess:
    FP = "ab12cd34ef567890"

    def test_racing_writer_processes_leave_one_intact_entry(self, tmp_path):
        writers = [_spawn_writer(tmp_path, tag, 40) for tag in (1, 2)]
        for writer in writers:
            assert writer.wait(timeout=120) == 0
        store = LocalResultStore(tmp_path)
        stored = store.get(self.FP)
        assert stored["values"] in ([1] * 64, [2] * 64)
        assert store.fingerprints() == [self.FP]
        assert not list(store.entry_dir(self.FP).glob("*.tmp-*"))
        assert _quarantined(tmp_path) == []

    def test_reader_never_sees_a_torn_entry(self, tmp_path):
        store = LocalResultStore(tmp_path)
        store.put(self.FP, {"values": [0] * 64, "dtype": "int64", "meta": {"i": -1}})
        writer = _spawn_writer(tmp_path, 3, 200)
        seen = set()
        try:
            while writer.poll() is None:
                payload = store.get(self.FP)
                assert payload is not None
                seen.add(payload["values"][0])
        finally:
            assert writer.wait(timeout=120) == 0
        assert seen <= {0, 3}
        assert store.get(self.FP)["values"] == [3] * 64
        assert _quarantined(tmp_path) == []


class TestResolveRejects:
    @pytest.mark.parametrize("spec", [0, 1.5, b"store", ["store"], ""], ids=repr)
    def test_non_store_specs_are_store_errors(self, spec):
        with pytest.raises(StoreError, match="store must be"):
            resolve_store(spec)


class TestDirectSampleStore:
    """``repro run --algorithm NAME --store DIR``: a miss, then a hit."""

    @pytest.mark.parametrize("algorithm", FAMILIES)
    def test_repeat_is_a_hit_with_the_same_stats_line(self, tmp_path, capsys, algorithm):
        args = ["--algorithm", algorithm, "--side", "4", "--trials", "16",
                "--seed", "7", "--store", str(tmp_path / "S")]
        lines = []
        for _ in range(2):
            assert main(args) == 0
            lines.append(capsys.readouterr().out.splitlines())
        assert lines[0][1].strip().startswith("store: miss (stored)")
        assert lines[1][1].strip().startswith("store: hit")
        assert lines[0][0] == lines[1][0]
        fresh = sample(algorithm, side=4, trials=16, seed=7, shard_size=64)
        assert f"digest={fresh.values_digest}" in lines[0][0]
        assert len(LocalResultStore(tmp_path / "S").fingerprints()) == 1
