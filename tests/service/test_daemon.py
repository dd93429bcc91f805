"""`repro serve` daemon mode: polling, retries, reclaim, drain, multi-serve."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.campaign import runner as campaign_runner
from repro.errors import CampaignError
from repro.service import JobQueue
from repro.service.cli import serve_main
from repro.store import LOCK_FORMAT, LocalResultStore

SRC = Path(__file__).resolve().parents[2] / "src"


def _submit(store, *, seed=0, side=6, trials=40, shard_size=8) -> str:
    queue = JobQueue(store)
    doc = queue.submit({
        "algorithm": "snake_1",
        "side": side,
        "trials": trials,
        "kind": "sort_steps",
        "seed": seed,
        "shard_size": shard_size,
    })
    return doc["id"]


def _metric(path, name) -> float:
    return json.loads(Path(path).read_text())[name]["value"]


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


def _no_leases(store) -> bool:
    leases = Path(store) / "jobs" / "leases"
    return not leases.exists() or not any(leases.glob("*.lease"))


class TestDaemonLoop:
    def test_daemon_drains_jobs_submitted_while_running(self, tmp_path, capsys):
        store = tmp_path / "store"
        metrics = tmp_path / "metrics.json"
        _submit(store, seed=1)
        # A second job lands while the daemon is already polling.
        late = threading.Timer(0.2, _submit, args=(store,), kwargs={"seed": 2})
        late.start()
        rc = serve_main([
            "--store", str(store),
            "--poll-interval", "0.05",
            "--idle-exit", "1.0",
            "--heartbeat-interval", "0.2",
            "--metrics-out", str(metrics),
        ])
        late.join()
        assert rc == 0
        docs = JobQueue(store).list_jobs()
        assert [d["state"] for d in docs] == ["done", "done"]
        assert _no_leases(store)
        assert _metric(metrics, "repro_serve_leases_total") == 2
        assert _metric(metrics, "repro_campaigns_total") == 2
        out = capsys.readouterr().out
        assert "j000001  done" in out and "j000002  done" in out

    def test_daemon_respects_max_jobs_budget(self, tmp_path):
        store = tmp_path / "store"
        for seed in (1, 2, 3):
            _submit(store, seed=seed)
        rc = serve_main([
            "--store", str(store),
            "--poll-interval", "0.05",
            "--idle-exit", "5.0",
            "--max-jobs", "2",
        ])
        assert rc == 0
        states = sorted(d["state"] for d in JobQueue(store).list_jobs())
        assert states == ["done", "done", "pending"]
        assert _no_leases(store)  # the unserved job is claimable by others

    def test_once_reports_jobs_leased_elsewhere(self, tmp_path, capsys):
        store = tmp_path / "store"
        job_id = _submit(store)
        queue = JobQueue(store)
        lease = queue.claim(job_id)  # "another serve process" holds it
        assert lease is not None
        rc = serve_main(["--store", str(store), "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no claimable pending jobs (1 leased by other serve" in out
        lease.release()


class TestRetryAndReclaim:
    def test_transient_campaign_error_is_retried(self, tmp_path, monkeypatch, capsys):
        store = tmp_path / "store"
        job_id = _submit(store)
        calls = {"n": 0}
        real = campaign_runner.run_campaign

        def flaky(spec, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise CampaignError([0], "worker pool lost (simulated)")
            return real(spec, **kwargs)

        monkeypatch.setattr("repro.service.cli.run_campaign", flaky)
        rc = serve_main([
            "--store", str(store), "--once",
            "--job-retries", "1",
            "--retry-backoff", "0.01",
        ])
        assert rc == 0
        doc = JobQueue(store).load(job_id)
        assert doc["state"] == "done"
        assert doc["attempts"] == 2
        assert calls["n"] == 2
        assert _no_leases(store)
        assert "done" in capsys.readouterr().out

    def test_retry_budget_exhausted_fails_the_job(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        job_id = _submit(store)

        def always_fails(spec, **kwargs):
            raise CampaignError([0], "permanently lost")

        monkeypatch.setattr("repro.service.cli.run_campaign", always_fails)
        rc = serve_main([
            "--store", str(store), "--once",
            "--job-retries", "1",
            "--retry-backoff", "0.01",
        ])
        assert rc == 1
        doc = JobQueue(store).load(job_id)
        assert doc["state"] == "failed"
        assert "CampaignError" in doc["error"]
        assert _no_leases(store)  # failure still releases the lease

    def test_dead_owner_lease_is_reclaimed_and_served(self, tmp_path):
        store = tmp_path / "store"
        metrics = tmp_path / "metrics.json"
        job_id = _submit(store)
        queue = JobQueue(store)
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
        rc = serve_main([
            "--store", str(store), "--once",
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        assert JobQueue(store).load(job_id)["state"] == "done"
        assert _metric(metrics, "repro_serve_reclaimed_total") == 1
        assert _metric(metrics, "repro_serve_leases_total") == 1


_SERVE_SCRIPT = """\
import sys
from repro.service.cli import serve_main
sys.exit(serve_main(sys.argv[1:]))
"""


def _spawn_serve(store, *extra) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", _SERVE_SCRIPT, "--store", str(store), *extra],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestSignalsAndMultiServe:
    def test_sigterm_drains_gracefully(self, tmp_path):
        store = tmp_path / "store"
        # Big enough (~1.5s) that SIGTERM lands while the job is in flight.
        job_id = _submit(store, side=24, trials=1024, shard_size=128)
        proc = _spawn_serve(
            store, "--poll-interval", "0.05", "--heartbeat-interval", "0.1"
        )
        try:
            queue = JobQueue(store)
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if queue.load(job_id)["state"] in ("running", "done"):
                    break
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        # Graceful drain: the in-flight job finished, its lease was
        # released, and the daemon exited cleanly.
        assert proc.returncode == 0, (out, err)
        doc = JobQueue(store).load(job_id)
        assert doc["state"] == "done", (doc, out, err)
        assert _no_leases(store)

    def test_two_daemons_partition_and_execute_each_fingerprint_once(
        self, tmp_path
    ):
        store = tmp_path / "store"
        # Three distinct fingerprints, each submitted twice.
        for seed in (1, 1, 2, 2, 3, 3):
            _submit(store, seed=seed)
        metrics = [tmp_path / "m1.json", tmp_path / "m2.json"]
        procs = [
            _spawn_serve(
                store,
                "--poll-interval", "0.05",
                "--idle-exit", "1.0",
                "--heartbeat-interval", "0.2",
                "--metrics-out", str(path),
            )
            for path in metrics
        ]
        outputs = [p.communicate(timeout=120.0) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outputs

        docs = JobQueue(store).list_jobs()
        assert len(docs) == 6
        assert all(d["state"] == "done" for d in docs), outputs
        assert _no_leases(store)

        # Exactly-once execution: across BOTH daemons, each distinct
        # fingerprint ran exactly one fresh campaign; every duplicate was
        # a store hit, after a fingerprint-lock wait when it overlapped.
        campaigns = sum(_metric(m, "repro_campaigns_total") for m in metrics)
        assert campaigns == 3
        leases = sum(_metric(m, "repro_serve_leases_total") for m in metrics)
        assert leases == 6

        # Bit-identical merged results: duplicates agree on the digest.
        by_fp: dict[str, set] = {}
        for doc in docs:
            by_fp.setdefault(doc["fingerprint"], set()).add(
                doc["result"]["values_digest"]
            )
        assert len(by_fp) == 3
        assert all(len(digests) == 1 for digests in by_fp.values())

        # The shared store holds one entry per distinct fingerprint.
        assert len(LocalResultStore(store).fingerprints()) == 3
