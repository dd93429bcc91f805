"""Lease protocol, concurrent-writer safety, and cross-process single-flight."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.errors import LeaseError, ServiceError
from repro.experiments.sampling import sample
from repro.service import JobQueue, spec_from_request
from repro.service.cli import serve_main
from repro.store import LOCK_FORMAT, LocalResultStore


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


# ---------------------------------------------------------------------------
# Satellite: id-allocation race (two concurrent submitters).
# ---------------------------------------------------------------------------


def _submit_batch(root: str, count: int, seed0: int) -> list[str]:
    queue = JobQueue(root)
    return [
        queue.submit(_request(seed=seed0 + i))["id"] for i in range(count)
    ]


class TestConcurrentSubmission:
    def test_two_processes_never_clobber_each_other(self, tmp_path):
        """Regression: two `repro jobs submit` processes computing the same
        highest id used to silently clobber one document via os.replace."""
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            results = pool.starmap(
                _submit_batch,
                [(str(tmp_path), 8, 100), (str(tmp_path), 8, 200)],
            )
        all_ids = [job_id for batch in results for job_id in batch]
        assert len(set(all_ids)) == 16  # no id was handed out twice
        queue = JobQueue(tmp_path)
        docs = queue.list_jobs()
        assert len(docs) == 16  # and no document was overwritten
        assert sorted(d["id"] for d in docs) == sorted(all_ids)
        seeds = sorted(d["request"]["seed"] for d in docs)
        assert seeds == sorted(list(range(100, 108)) + list(range(200, 208)))

    def test_threaded_submitters_allocate_distinct_ids(self, tmp_path):
        queue_per_thread = [JobQueue(tmp_path) for _ in range(4)]
        ids: list[str] = []
        lock = threading.Lock()

        def submit(queue, seed0):
            for i in range(5):
                doc = queue.submit(_request(seed=seed0 + i))
                with lock:
                    ids.append(doc["id"])

        threads = [
            threading.Thread(target=submit, args=(q, 100 * n))
            for n, q in enumerate(queue_per_thread)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == 20

    def test_submission_leaves_no_tmp_litter(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(_request())
        leftovers = [
            p for p in queue.jobs_dir.iterdir() if not p.name.endswith(".json")
        ]
        assert leftovers == []


# ---------------------------------------------------------------------------
# Satellite: update atomicity under concurrent writers.
# ---------------------------------------------------------------------------


class TestUpdateAtomicity:
    def test_concurrent_writers_never_lose_fields(self, tmp_path):
        queue = JobQueue(tmp_path)
        doc = queue.submit(_request())
        job_id = doc["id"]
        rounds = 30

        def writer(field_name):
            q = JobQueue(tmp_path)
            for i in range(rounds):
                q.update(job_id, **{field_name: i})

        threads = [
            threading.Thread(target=writer, args=(name,))
            for name in ("alpha", "beta")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = queue.load(job_id)
        # Without the per-document lock one writer's read-modify-write
        # routinely erased the other's field; with it, both survive.
        assert final["alpha"] == rounds - 1
        assert final["beta"] == rounds - 1
        assert final["state"] == "pending"  # untouched fields intact


# ---------------------------------------------------------------------------
# Lease lifecycle.
# ---------------------------------------------------------------------------


class TestLeases:
    def test_claim_is_exclusive_across_queue_instances(self, tmp_path):
        a, b = JobQueue(tmp_path), JobQueue(tmp_path)
        doc = a.submit(_request())
        lease = a.claim(doc["id"])
        assert lease is not None and lease.active
        assert b.claim(doc["id"]) is None
        lease.release()
        retaken = b.claim(doc["id"])
        assert retaken is not None
        retaken.release()

    def test_double_claim_by_same_queue_raises(self, tmp_path):
        queue = JobQueue(tmp_path)
        doc = queue.submit(_request())
        lease = queue.claim(doc["id"])
        with pytest.raises(LeaseError, match="already held"):
            queue.claim(doc["id"])
        lease.release()

    def test_heartbeat_advances_lease_clock(self, tmp_path):
        queue = JobQueue(tmp_path)
        doc = queue.submit(_request())
        lease = queue.claim(doc["id"])
        assert lease.heartbeat() == 1
        assert lease.heartbeat() == 2
        body = json.loads(queue.lease_path(doc["id"]).read_text())
        assert body["heartbeat"] == 2
        lease.release()

    def test_dead_owner_lease_reclaimed(self, tmp_path):
        import socket

        queue = JobQueue(tmp_path)
        doc = queue.submit(_request())
        queue.leases_dir.mkdir(parents=True, exist_ok=True)
        queue.lease_path(doc["id"]).write_text(
            json.dumps({
                "format": LOCK_FORMAT,
                "owner": "crashed-serve",
                "host": socket.gethostname(),
                "pid": _dead_pid(),
                "heartbeat": 3,
            }),
            encoding="utf-8",
        )
        lease = queue.claim(doc["id"])
        assert lease is not None
        assert lease.reclaimed
        lease.release()

    def test_claim_pending_partitions_between_queues(self, tmp_path):
        a, b = JobQueue(tmp_path), JobQueue(tmp_path)
        for i in range(6):
            a.submit(_request(seed=i))
        got_a = a.claim_pending(limit=3)
        got_b = b.claim_pending()
        ids_a = {doc["id"] for doc, _ in got_a}
        ids_b = {doc["id"] for doc, _ in got_b}
        assert len(ids_a) == 3 and len(ids_b) == 3
        assert not (ids_a & ids_b)  # disjoint partition
        assert ids_a | ids_b == {f"j{n:06d}" for n in range(1, 7)}
        for _, lease in got_a + got_b:
            lease.release()

    def test_claim_pending_rechecks_state_under_lease(self, tmp_path):
        """A job completed between listing and claiming is not re-run."""
        queue = JobQueue(tmp_path)
        doc = queue.submit(_request())
        other = JobQueue(tmp_path)

        original_claim = queue.claim

        def racing_claim(job_id, **kwargs):
            # Another serve finishes the job just before our claim lands.
            other.update(job_id, state="done")
            return original_claim(job_id, **kwargs)

        queue.claim = racing_claim  # type: ignore[method-assign]
        assert queue.claim_pending() == []
        # The released lease is claimable again.
        assert not queue.lease_path(doc["id"]).exists()


# ---------------------------------------------------------------------------
# Satellite: corrupt job documents are quarantined, not fatal.
# ---------------------------------------------------------------------------


class TestCorruptDocQuarantine:
    def test_listing_survives_a_torn_document(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(_request(seed=1))
        queue.submit(_request(seed=2))
        (queue.jobs_dir / "j000500.json").write_text("{torn", encoding="utf-8")
        docs = queue.list_jobs()
        states = {d["id"]: d["state"] for d in docs}
        assert states["j000001"] == "pending"
        assert states["j000002"] == "pending"
        assert states["j000500"] == "quarantined"
        assert "quarantined" in docs[-1]["error"]
        # The torn file moved aside; a second listing no longer sees it.
        assert not (queue.jobs_dir / "j000500.json").exists()
        assert (queue.quarantine_dir / "j000500-1.json").exists()
        assert {d["id"] for d in queue.list_jobs()} == {"j000001", "j000002"}

    def test_pending_skips_quarantined_documents(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(_request())
        (queue.jobs_dir / "j000099.json").write_text("", encoding="utf-8")
        assert [d["id"] for d in queue.pending()] == ["j000001"]

    def test_wrong_format_document_quarantined(self, tmp_path):
        queue = JobQueue(tmp_path)
        (queue.jobs_dir).mkdir(parents=True)
        (queue.jobs_dir / "j000001.json").write_text(
            json.dumps({"format": "something-else"}), encoding="utf-8"
        )
        docs = queue.list_jobs()
        assert [d["state"] for d in docs] == ["quarantined"]

    def test_direct_load_stays_strict(self, tmp_path):
        queue = JobQueue(tmp_path)
        (queue.jobs_dir).mkdir(parents=True)
        (queue.jobs_dir / "j000001.json").write_text("{torn", encoding="utf-8")
        with pytest.raises(ServiceError, match="unreadable"):
            queue.load("j000001")


# ---------------------------------------------------------------------------
# Cross-process single-flight on the store fingerprint.
# ---------------------------------------------------------------------------


def _metrics(path) -> dict[str, float]:
    return {
        name: counter["value"]
        for name, counter in json.loads(path.read_text()).items()
        if isinstance(counter, dict) and "value" in counter
    }


class TestCrossProcessSingleFlight:
    def test_loser_waits_then_serves_the_store_hit(self, tmp_path):
        """While another process holds the fingerprint lock, serve blocks;
        once released it must serve the winner's stored result with ZERO
        kernel work (proven from its metrics)."""
        store_dir = tmp_path / "shared-store"
        metrics_path = tmp_path / "metrics.json"
        queue = JobQueue(store_dir)
        job_id = queue.submit(_request(seed=3))["id"]
        spec = spec_from_request(_request(seed=3))

        # "Winner in another process": hold the fingerprint lock while
        # computing + storing the result out-of-band.
        winner_lock = LocalResultStore(store_dir).fingerprint_lock(
            spec.fingerprint
        )
        assert winner_lock.try_acquire()
        codes: list[int] = []
        serve = threading.Thread(
            target=lambda: codes.append(serve_main([
                "--store", str(store_dir), "--once",
                "--metrics-out", str(metrics_path),
            ]))
        )
        serve.start()
        try:
            deadline = time.monotonic() + 30.0
            while queue.load(job_id)["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            winner_result = sample(
                "snake_1", side=6, trials=40, seed=3, shard_size=8,
                store=store_dir,
            )
        finally:
            winner_lock.release()
            serve.join(timeout=60.0)
        assert not serve.is_alive()
        assert codes == [0]

        doc = queue.load(job_id)
        assert doc["state"] == "done"
        assert doc["cache_hit"]
        assert doc["result"]["values_digest"] == winner_result.values_digest
        # Zero kernel work in the losing serve: no runs, no steps, no
        # campaign — one lock wait, then one store hit.
        counters = _metrics(metrics_path)
        assert counters["repro_serve_lock_waits_total"] == 1
        assert counters["repro_runs_total"] == 0
        assert counters["repro_steps_total"] == 0
        assert counters["repro_campaigns_total"] == 0
        assert counters["repro_service_store_hits_total"] == 1
        assert counters["repro_service_cache_hits_total"] == 1

    def test_uncontended_lock_leaves_no_residue(self, tmp_path):
        store_dir = tmp_path / "store"
        JobQueue(store_dir).submit(_request(seed=9))
        assert serve_main(["--store", str(store_dir), "--once"]) == 0
        spec = spec_from_request(_request(seed=9))
        lock_path = LocalResultStore(store_dir).lock_path(spec.fingerprint)
        assert not lock_path.exists()
