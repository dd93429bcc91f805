"""Durable job queue + the ``repro jobs`` / ``repro serve`` CLIs."""

from __future__ import annotations

import json

import pytest

from repro.campaign import run_campaign
from repro.cli import main as repro_main
from repro.errors import ServiceError
from repro.experiments.sampling import sample
from repro.service import JobQueue, spec_from_request
from repro.service.cli import jobs_main, serve_main
from repro.store import LocalResultStore, decode_result


def _request(**overrides) -> dict:
    base = {
        "algorithm": "snake_1",
        "side": 6,
        "trials": 40,
        "kind": "sort_steps",
        "seed": 99,
        "shard_size": 8,
    }
    base.update(overrides)
    return base


class TestSpecFromRequest:
    def test_round_trip_matches_spec(self):
        spec = spec_from_request(_request())
        assert spec.algorithm_name == "snake_1"
        assert spec.side == 6
        assert spec.shard_size == 8

    def test_shard_size_defaults_to_facade_value(self, tmp_path):
        """Queued jobs share fingerprints — and store entries — with
        sample(..., store=...) calls for the same campaign."""
        spec = spec_from_request(_request(shard_size=None))
        facade = sample(
            "snake_1", side=6, trials=40, seed=99, store=tmp_path
        )
        assert spec.fingerprint == facade.meta["store"]["fingerprint"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown job request field"):
            spec_from_request(_request(statistic="mean"))

    def test_non_sort_steps_rejected(self):
        with pytest.raises(ServiceError, match="sort_steps"):
            spec_from_request(_request(kind="statistic"))

    def test_missing_field_named(self):
        request = _request()
        del request["trials"]
        with pytest.raises(ServiceError, match="missing field 'trials'"):
            spec_from_request(request)


class TestJobQueue:
    def test_submit_load_update_round_trip(self, tmp_path):
        queue = JobQueue(tmp_path)
        doc = queue.submit(_request())
        assert doc["id"] == "j000001"
        assert doc["state"] == "pending"
        assert queue.load("j000001")["fingerprint"] == doc["fingerprint"]
        queue.update("j000001", state="done", cache_hit=True)
        reloaded = queue.load("j000001")
        assert reloaded["state"] == "done"
        assert reloaded["cache_hit"] is True

    def test_ids_monotonic_and_listing_ordered(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(_request())
        queue.submit(_request(seed=1))
        assert [d["id"] for d in queue.list_jobs()] == ["j000001", "j000002"]
        queue.update("j000001", state="done")
        assert [d["id"] for d in queue.pending()] == ["j000002"]

    def test_bad_request_never_touches_disk(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(ServiceError):
            queue.submit(_request(kind="statistic"))
        assert not queue.jobs_dir.exists()

    def test_unknown_job_id(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(ServiceError, match="no job"):
            queue.load("j999999")


class TestCli:
    def _submit(self, store, **kw) -> int:
        argv = [
            "submit", kw.pop("algorithm", "snake_1"),
            "--side", str(kw.pop("side", 6)),
            "--trials", str(kw.pop("trials", 40)),
            "--seed", str(kw.pop("seed", 99)),
            "--shard-size", str(kw.pop("shard_size", 8)),
            "--store", str(store),
        ]
        assert not kw
        return jobs_main(argv)

    def test_smoke_sequence_with_cache_hit(self, tmp_path, capsys):
        """The CI smoke pattern: serve a campaign, then serve one identical
        and one distinct job — the identical one must be a cache hit."""
        store = tmp_path / "store"
        assert self._submit(store) == 0
        assert serve_main(["--store", str(store), "--once"]) == 0
        out = capsys.readouterr().out
        assert "j000001  done" in out
        assert "[cache hit]" not in out

        assert self._submit(store) == 0  # identical -> store hit
        assert self._submit(store, seed=7) == 0  # distinct -> fresh run
        assert serve_main(["--store", str(store), "--once"]) == 0
        out = capsys.readouterr().out
        lines = {line.split()[0]: line for line in out.splitlines() if line}
        assert "[cache hit]" in lines["j000002"]
        assert "[cache hit]" not in lines["j000003"]

    def test_identical_pending_jobs_run_once(self, tmp_path, capsys):
        """One --once pass over two identical and one distinct pending job
        runs two campaigns: the duplicate is a store hit."""
        store = tmp_path / "store"
        self._submit(store)
        self._submit(store)
        self._submit(store, seed=7)
        metrics_path = tmp_path / "metrics.json"
        assert serve_main([
            "--store", str(store), "--once",
            "--metrics-out", str(metrics_path),
        ]) == 0
        capsys.readouterr()
        metrics = json.loads(metrics_path.read_text())
        assert metrics["repro_campaigns_total"]["value"] == 2
        assert metrics["repro_service_jobs_total"]["value"] == 3
        assert metrics["repro_service_jobs_completed_total"]["value"] == 3
        assert metrics["repro_service_cache_hits_total"]["value"] == 1
        assert metrics["repro_service_store_puts_total"]["value"] == 2
        first, duplicate, distinct = JobQueue(store).list_jobs()
        assert not first["cache_hit"]
        assert duplicate["cache_hit"]
        assert not distinct["cache_hit"]
        assert (
            duplicate["result"]["values_digest"]
            == first["result"]["values_digest"]
        )

    def test_result_prints_summary_json(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._submit(store)
        serve_main(["--store", str(store), "--once"])
        capsys.readouterr()
        assert jobs_main(["result", "j000001", "--store", str(store)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 40
        assert summary["store"]["hit"] is False

    def test_result_of_pending_job_fails(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._submit(store)
        capsys.readouterr()
        assert jobs_main(["result", "j000001", "--store", str(store)]) == 1
        assert "is pending, not done" in capsys.readouterr().err

    def test_status_and_list(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._submit(store)
        self._submit(store, seed=3)
        capsys.readouterr()
        assert jobs_main(["status", "j000002", "--store", str(store)]) == 0
        assert "j000002  pending" in capsys.readouterr().out
        assert jobs_main(["list", "--store", str(store)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_serve_failed_job_exits_one(self, tmp_path, capsys):
        store = tmp_path / "store"
        jobs_main([
            "submit", "snake_1", "--side", "6", "--trials", "8",
            "--max-steps", "1", "--store", str(store),
        ])
        metrics_path = tmp_path / "metrics.json"
        assert serve_main([
            "--store", str(store), "--once",
            "--metrics-out", str(metrics_path),
        ]) == 1
        doc = JobQueue(store).load("j000001")
        assert doc["state"] == "failed"
        assert "StepLimitExceeded" in doc["error"]
        metrics = json.loads(metrics_path.read_text())
        assert metrics["repro_service_jobs_failed_total"]["value"] == 1

    def test_serve_workers_reach_the_campaign(self, tmp_path, capsys):
        """--workers sets the campaign's process count; the stored values
        match a 1-worker run bit for bit."""
        store = tmp_path / "store"
        self._submit(store)
        assert serve_main(
            ["--store", str(store), "--once", "--workers", "2"]
        ) == 0
        spec = spec_from_request(_request())
        stored = decode_result(LocalResultStore(store).get(spec.fingerprint))
        assert stored.meta["workers"] == 2
        assert stored.values_digest == run_campaign(spec).values_digest

    def test_serve_empty_queue(self, tmp_path, capsys):
        assert serve_main(["--store", str(tmp_path), "--once"]) == 0
        assert "no pending jobs" in capsys.readouterr().out

    def test_serve_max_jobs(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._submit(store)
        self._submit(store, seed=3)
        assert serve_main(
            ["--store", str(store), "--once", "--max-jobs", "1"]
        ) == 0
        queue = JobQueue(store)
        assert queue.load("j000001")["state"] == "done"
        assert queue.load("j000002")["state"] == "pending"

    def test_front_door_dispatch(self, tmp_path, capsys):
        """``repro jobs``/``repro serve`` ride the console front door."""
        store = tmp_path / "store"
        assert repro_main([
            "jobs", "submit", "snake_1", "--side", "6", "--trials", "40",
            "--seed", "99", "--shard-size", "8", "--store", str(store),
        ]) == 0
        assert repro_main(["serve", "--store", str(store), "--once"]) == 0
        out = capsys.readouterr().out
        assert "j000001  done" in out
