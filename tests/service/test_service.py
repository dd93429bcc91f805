"""The job path of ``repro serve``: lifecycle, cache hits, locks, heartbeats.

These tests drive one :class:`repro.service.cli._ServeSession` in-process,
so the ``JobUpdate`` stream and the campaign events it produces can be
recorded directly; the CLI front (argument parsing, exit codes, metrics
files) is covered in ``test_queue_cli.py`` and ``test_daemon.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import threading

import numpy as np
import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.errors import LeaseError
from repro.obs import (
    MetricsObserver,
    MetricsRegistry,
    RecordingObserver,
    SpanProfiler,
    use_observer,
    use_profiler,
)
from repro.service import JOB_STATES, JobLease, JobQueue
from repro.service import cli as serve_cli
from repro.service.cli import LOCK_STALE_AFTER, jobs_main
from repro.store import LOCK_FORMAT, LocalResultStore, decode_result

SPEC = CampaignSpec("snake_1", side=6, trials=40, seed=99, shard_size=8)
OTHER = CampaignSpec("snake_2", side=6, trials=40, seed=99, shard_size=8)


def _request(spec: CampaignSpec = SPEC, **overrides) -> dict:
    request = {
        "algorithm": spec.algorithm_name,
        "side": spec.side,
        "trials": spec.trials,
        "kind": "sort_steps",
        "seed": spec.seed,
        "shard_size": spec.shard_size,
    }
    request.update(overrides)
    return request


def _session(store, observer, **overrides) -> serve_cli._ServeSession:
    args = argparse.Namespace(
        workers=1,
        max_jobs=None,
        lease_stale_after=60.0,
        heartbeat_interval=5.0,
        job_retries=0,
        retry_backoff=0.01,
    )
    for key, value in overrides.items():
        setattr(args, key, value)
    return serve_cli._ServeSession(
        queue=JobQueue(store),
        store=LocalResultStore(store),
        observer=observer,
        args=args,
        stop=threading.Event(),
    )


def _serve_all(session: serve_cli._ServeSession) -> int:
    served = 0
    while session.serve_pass():
        served += 1
    return served


def _counter(registry: MetricsRegistry, name: str) -> float:
    return registry.as_dict()[name]["value"]


def _states(rec: RecordingObserver, job_id: str) -> list[str]:
    return [u.state for u in rec.job_updates if u.job_id == job_id]


class TestLifecycle:
    def test_submit_status_result(self, tmp_path, capsys):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request())["id"]
        rec = RecordingObserver()
        with use_observer(rec):
            assert _session(tmp_path, rec).serve_pass() == 1
        doc = queue.load(job_id)
        assert doc["state"] == "done"
        assert doc["cache_hit"] is False
        assert doc["fingerprint"] == SPEC.fingerprint
        stored = decode_result(LocalResultStore(tmp_path).get(SPEC.fingerprint))
        expected = run_campaign(SPEC, workers=1)
        assert doc["result"]["values_digest"] == expected.values_digest
        np.testing.assert_array_equal(stored.values, expected.values)
        assert f"{job_id}  done" in capsys.readouterr().out

    def test_states_vocabulary(self, tmp_path, capsys):
        """Serve only ever writes states of the documented vocabulary."""
        assert JOB_STATES == ("pending", "running", "done", "failed")
        queue = JobQueue(tmp_path)
        queue.submit(_request())
        queue.submit(_request(max_steps=1))
        rec = RecordingObserver()
        with use_observer(rec):
            _serve_all(_session(tmp_path, rec))
        assert {d["state"] for d in queue.list_jobs()} == {"done", "failed"}
        written = {u.state for u in rec.job_updates}
        assert written & set(JOB_STATES) == {"running", "done", "failed"}

    def test_jobs_listing(self, tmp_path, capsys):
        queue = JobQueue(tmp_path)
        first = queue.submit(_request())["id"]
        second = queue.submit(_request(OTHER))["id"]
        rec = RecordingObserver()
        with use_observer(rec):
            assert _serve_all(_session(tmp_path, rec)) == 2
        listed = queue.list_jobs()
        assert [d["id"] for d in listed] == [first, second]
        assert all(d["state"] == "done" for d in listed)
        assert queue.pending() == []

    def test_unknown_handle_rejected(self, tmp_path, capsys):
        assert jobs_main(["status", "j999999", "--store", str(tmp_path)]) == 1
        assert "error: no job" in capsys.readouterr().err

    def test_failure_surfaces_on_document_and_update(self, tmp_path, capsys):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request(max_steps=1))["id"]
        rec = RecordingObserver()
        session = _session(tmp_path, rec)
        with use_observer(rec):
            assert session.serve_pass() == 1
        doc = queue.load(job_id)
        assert doc["state"] == "failed"
        assert "StepLimitExceeded" in doc["error"]
        failed = [u for u in rec.job_updates if u.state == "failed"]
        assert len(failed) == 1
        assert failed[0].error == doc["error"]
        assert failed[0].fingerprint == doc["fingerprint"]
        assert session.failed == 1
        assert session.processed == 1
        assert jobs_main(["result", job_id, "--store", str(tmp_path)]) == 1
        assert "is failed, not done" in capsys.readouterr().err

    def test_malformed_request_fails_without_running(self, tmp_path, capsys):
        """A document whose request no longer parses is failed at once:
        no campaign starts and no fingerprint lock is taken."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request())["id"]
        queue.update(job_id, request=_request(statistic="mean"))
        rec = RecordingObserver()
        with use_observer(rec):
            assert _session(tmp_path, rec).serve_pass() == 1
        doc = queue.load(job_id)
        assert doc["state"] == "failed"
        assert "unknown job request field" in doc["error"]
        assert rec.campaign_starts == []
        assert not LocalResultStore(tmp_path).locks_dir.exists()
        assert _states(rec, job_id) == ["leased", "failed", "released"]

    def test_closed_service_refuses_submissions(self, tmp_path):
        """A draining session claims nothing new: the job it leased is
        released untouched and stays pending for another serve process."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request())["id"]
        rec = RecordingObserver()
        session = _session(tmp_path, rec)
        session.stop.set()
        with use_observer(rec):
            assert session.serve_pass() == 1
        assert queue.load(job_id)["state"] == "pending"
        assert not queue.lease_path(job_id).exists()
        assert _states(rec, job_id) == ["leased", "released"]
        assert rec.campaign_starts == []
        assert session.processed == 0

    def test_failed_job_counts_toward_max_jobs(self, tmp_path, capsys):
        queue = JobQueue(tmp_path)
        queue.submit(_request(max_steps=1))
        second = queue.submit(_request())["id"]
        rec = RecordingObserver()
        session = _session(tmp_path, rec, max_jobs=1)
        with use_observer(rec):
            assert _serve_all(session) == 1
        assert session.budget_spent
        assert queue.load(second)["state"] == "pending"


class TestCacheHit:
    def test_repeat_submission_is_store_hit_and_bit_identical(
        self, tmp_path, capsys
    ):
        queue = JobQueue(tmp_path)
        first = queue.submit(_request())["id"]
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec).serve_pass()
            second = queue.submit(_request())["id"]
            _session(tmp_path, rec).serve_pass()
        cold, warm = queue.load(first), queue.load(second)
        assert not cold["cache_hit"]
        assert warm["cache_hit"]
        assert warm["result"]["store"]["hit"] is True
        assert warm["result"]["values_digest"] == cold["result"]["values_digest"]
        assert warm["result"]["count"] == cold["result"]["count"]

    def test_cache_hit_runs_zero_kernel_steps(self, tmp_path, capsys):
        """A served duplicate performs no kernel work: no runs, no steps,
        no campaign in the metrics, and no shard spans in the profile."""
        queue = JobQueue(tmp_path)
        queue.submit(_request())
        cold = RecordingObserver()
        with use_observer(cold):
            _session(tmp_path, cold).serve_pass()
        queue.submit(_request())

        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        profiler = SpanProfiler()
        with use_observer(observer), use_profiler(profiler):
            assert _session(tmp_path, observer).serve_pass() == 1
        assert _counter(registry, "repro_service_store_hits_total") == 1
        assert _counter(registry, "repro_service_cache_hits_total") == 1
        assert _counter(registry, "repro_runs_total") == 0
        assert _counter(registry, "repro_steps_total") == 0
        assert _counter(registry, "repro_campaigns_total") == 0
        names = _span_names(profiler.tree())
        assert "store_lookup" in names
        assert not any("shard" in name for name in names)

    def test_cold_vs_warm_identical_across_worker_counts(self, tmp_path, capsys):
        """A job served with more campaign workers hits the entry a
        one-worker serve stored: the fingerprint excludes worker count."""
        queue = JobQueue(tmp_path)
        cold_id = queue.submit(_request())["id"]
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec, workers=1).serve_pass()
            warm_id = queue.submit(_request())["id"]
            _session(tmp_path, rec, workers=2).serve_pass()
        cold, warm = queue.load(cold_id), queue.load(warm_id)
        assert warm["cache_hit"]
        assert warm["result"]["values_digest"] == cold["result"]["values_digest"]
        stored = decode_result(LocalResultStore(tmp_path).get(SPEC.fingerprint))
        assert stored.meta["workers"] == 1

    def test_served_hit_leaves_the_entry_unchanged(self, tmp_path, capsys):
        """Serving a duplicate reads the entry; it never rewrites it."""
        queue = JobQueue(tmp_path)
        queue.submit(_request())
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec).serve_pass()
        entry = LocalResultStore(tmp_path).entry_dir(SPEC.fingerprint)
        before = {
            p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in entry.iterdir()
        }
        queue.submit(_request())
        with use_observer(rec):
            _session(tmp_path, rec).serve_pass()
        after = {
            p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in entry.iterdir()
        }
        assert after == before
        assert [e.op for e in rec.store_events] == ["miss", "put", "hit"]


def _span_names(nodes: list[dict]) -> list[str]:
    names: list[str] = []
    for node in nodes:
        names.append(node["name"])
        names.extend(_span_names(node.get("children", [])))
    return names


class TestFingerprintLock:
    def test_uncontended_run_emits_no_lock_wait(self, tmp_path, capsys):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request())["id"]
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec).serve_pass()
        assert _states(rec, job_id) == ["leased", "running", "done", "released"]

    def test_holder_that_stored_nothing_leaves_the_run_to_the_waiter(
        self, tmp_path, capsys
    ):
        """A lock holder that releases without storing an entry (it failed
        or was cancelled) leaves the waiter to run the campaign itself."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request())["id"]
        holder = LocalResultStore(tmp_path).fingerprint_lock(SPEC.fingerprint)
        assert holder.try_acquire()

        class ReleaseOnWait(RecordingObserver):
            def on_job_update(self, event):
                super().on_job_update(event)
                if event.state == "lock_wait":
                    holder.release()

        rec = ReleaseOnWait()
        with use_observer(rec):
            assert _session(tmp_path, rec).serve_pass() == 1
        assert _states(rec, job_id) == [
            "leased", "running", "lock_wait", "done", "released",
        ]
        doc = queue.load(job_id)
        assert doc["state"] == "done"
        assert not doc["cache_hit"]
        assert len(rec.campaign_starts) == 1

    def test_lock_runs_with_the_module_staleness_bound(
        self, tmp_path, monkeypatch, capsys
    ):
        assert LOCK_STALE_AFTER == pytest.approx(600.0)
        seen: list[dict] = []
        real = LocalResultStore.fingerprint_lock

        def spy(self, fingerprint, **kwargs):
            seen.append({"fingerprint": fingerprint, **kwargs})
            return real(self, fingerprint, **kwargs)

        monkeypatch.setattr(LocalResultStore, "fingerprint_lock", spy)
        JobQueue(tmp_path).submit(_request())
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec).serve_pass()
        assert seen == [
            {"fingerprint": SPEC.fingerprint, "stale_after": LOCK_STALE_AFTER}
        ]

    def test_failed_job_releases_lock_and_lease(self, tmp_path, capsys):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request(max_steps=1))["id"]
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec).serve_pass()
        store = LocalResultStore(tmp_path)
        spec_fp = queue.load(job_id)["fingerprint"]
        assert queue.load(job_id)["state"] == "failed"
        assert not store.lock_path(spec_fp).exists()
        assert not queue.lease_path(job_id).exists()
        assert store.fingerprints() == []


class _FakeLease:
    """Stands in for a :class:`JobLease`: counts (or fails) heartbeats."""

    def __init__(self, fail: bool = False):
        self.fail = fail
        self.beats = 0
        self.beaten = threading.Event()

    def heartbeat(self) -> int:
        if self.fail:
            raise LeaseError("lease lost")
        self.beats += 1
        if self.beats >= 3:
            self.beaten.set()
        return self.beats


class TestHeartbeat:
    def test_heartbeat_bumps_the_lease_until_stopped(self):
        lease = _FakeLease()
        beat = serve_cli._Heartbeat(lease, interval=0.01)
        beat.start()
        assert lease.beaten.wait(timeout=30.0)
        beat.stop()
        assert not beat.is_alive()
        stopped_at = lease.beats
        threading.Event().wait(0.05)
        assert lease.beats == stopped_at

    def test_heartbeat_failure_reraised_on_stop(self):
        beat = serve_cli._Heartbeat(_FakeLease(fail=True), interval=0.01)
        beat.start()
        beat.join(timeout=30.0)
        assert not beat.is_alive()
        with pytest.raises(LeaseError, match="lease lost"):
            beat.stop()

    def test_heartbeat_joined_before_release(
        self, tmp_path, monkeypatch, capsys
    ):
        """The lease is released only after its heartbeat thread ended, so
        no bump can recreate a released lease file."""
        alive_at_release: list[bool] = []
        real_release = JobLease.release

        def release(self):
            alive_at_release.append(
                any(t.name == "repro-serve-heartbeat" for t in threading.enumerate())
            )
            real_release(self)

        monkeypatch.setattr(JobLease, "release", release)
        JobQueue(tmp_path).submit(_request())
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec, heartbeat_interval=0.001).serve_pass()
        assert alive_at_release == [False]

    def test_lease_heartbeats_while_the_job_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        beats: list[int] = []
        real_heartbeat = JobLease.heartbeat
        real_run = serve_cli.run_campaign

        def heartbeat(self):
            beats.append(real_heartbeat(self))
            return beats[-1]

        def slow_run(spec, **kwargs):
            # Hold the job open until the lease has been bumped twice.
            for _ in range(3000):
                if len(beats) >= 2:
                    break
                threading.Event().wait(0.01)
            return real_run(spec, **kwargs)

        monkeypatch.setattr(JobLease, "heartbeat", heartbeat)
        monkeypatch.setattr(serve_cli, "run_campaign", slow_run)
        JobQueue(tmp_path).submit(_request())
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec, heartbeat_interval=0.01).serve_pass()
        assert len(beats) >= 2
        assert beats == sorted(beats)


class TestObservability:
    def test_job_updates_reported_in_lifecycle_order(self, tmp_path, capsys):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request())["id"]
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec).serve_pass()
        assert _states(rec, job_id) == ["leased", "running", "done", "released"]
        done = next(u for u in rec.job_updates if u.state == "done")
        assert done.fingerprint == SPEC.fingerprint
        assert done.cache_hit is False
        assert done.error == ""

    def test_campaign_events_reach_the_ambient_observer(self, tmp_path, capsys):
        JobQueue(tmp_path).submit(_request())
        rec = RecordingObserver()
        with use_observer(rec):
            _session(tmp_path, rec).serve_pass()
        assert len(rec.campaign_starts) == 1
        assert [e.op for e in rec.store_events] == ["miss", "put"]

    def test_reclaimed_update_precedes_leased(self, tmp_path, capsys):
        """A lease left by a dead on-host serve is reclaimed, and the update
        stream says so before the lease is reported."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request())["id"]
        queue.leases_dir.mkdir(parents=True, exist_ok=True)
        queue.lease_path(job_id).write_text(
            json.dumps({
                "format": LOCK_FORMAT,
                "owner": "crashed-serve",
                "host": socket.gethostname(),
                "pid": _dead_pid(),
                "heartbeat": 7,
            }),
            encoding="utf-8",
        )
        rec = RecordingObserver()
        with use_observer(rec):
            assert _session(tmp_path, rec).serve_pass() == 1
        assert _states(rec, job_id) == [
            "reclaimed", "leased", "running", "done", "released",
        ]
        assert queue.load(job_id)["state"] == "done"


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
