"""``repro jobs`` and ``repro serve``: the command-line front of the job queue.

``repro jobs submit`` validates a campaign request and persists it as a
pending job document next to the result store; ``repro serve`` claims
pending jobs one at a time through the :class:`~repro.service.queue.
JobQueue` lease protocol, runs each through
:func:`~repro.campaign.run_campaign` with the store, and writes the
outcome back; ``repro jobs status/result/list`` inspect the documents.

``repro serve`` runs as a **daemon** by default: it polls the queue with
jittered backoff while idle, heartbeats the lease it holds from a small
thread, retries jobs that fail with a transient
:class:`~repro.errors.CampaignError`, and drains gracefully on
SIGINT/SIGTERM — the running job finishes and its lease is released.
``--once`` serves the currently claimable pending set and exits.
Because claims are ``O_EXCL`` leases and each job runs under the store's
per-fingerprint lock under ``<store>/locks/``, any number of serve
processes can share one store: they partition the pending set, and each
distinct fingerprint executes exactly once — a duplicate waits on the
lock and is then served as a store hit.

One directory (``--store``) holds everything: the content-addressed
result entries, the ``jobs/`` queue, and the lease/lock files — so
shipping the directory ships the cache *and* its audit trail.

Exit codes follow the repro CLI contract: 0 ok, 1 failures (a served job
failed; asking for the result of an unfinished/failed job), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.result import SampleResult
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignError, LeaseError, ReproError, ServiceError
from repro.obs.context import use_observer
from repro.obs.events import JobUpdate, Observer
from repro.obs.metrics import MetricsObserver, MetricsRegistry
from repro.obs.timing import StopWatch
from repro.randomness import as_generator
from repro.service.queue import JobLease, JobQueue, spec_from_request
from repro.store import LocalResultStore

__all__ = ["jobs_main", "serve_main"]

#: Staleness bound (seconds) for the per-fingerprint lock a job runs
#: under: a lock whose on-host owner died is reclaimed at once, and one
#: held from another host after sitting unchanged this long.
LOCK_STALE_AFTER = 600.0


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="result-store directory (job documents live under DIR/jobs/)",
    )


def _job_line(doc: dict[str, Any]) -> str:
    request = doc.get("request", {})
    line = (
        f"{doc['id']}  {doc['state']:7s}  "
        f"{request.get('algorithm', '?')} side={request.get('side', '?')} "
        f"trials={request.get('trials', '?')}  fp={doc.get('fingerprint', '')}"
    )
    if doc.get("cache_hit"):
        line += "  [cache hit]"
    if doc.get("error"):
        line += f"  error={doc['error']}"
    return line


# ---------------------------------------------------------------------------
# repro jobs
# ---------------------------------------------------------------------------


def jobs_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro jobs",
        description="submit and inspect durable campaign jobs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="queue one sort_steps campaign")
    p_submit.add_argument("algorithm", help="schedule/algorithm name")
    p_submit.add_argument("--side", type=int, required=True)
    p_submit.add_argument("--trials", type=int, required=True)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument(
        "--shard-size", type=int, default=None,
        help="trials per campaign shard (default 64, matching sample())",
    )
    p_submit.add_argument("--backend", default=None)
    p_submit.add_argument(
        "--input-kind", default=None, choices=("permutation", "zero_one")
    )
    p_submit.add_argument("--max-steps", type=int, default=None)
    _add_store_arg(p_submit)

    p_status = sub.add_parser("status", help="one job's lifecycle state")
    p_status.add_argument("job_id")
    _add_store_arg(p_status)

    p_result = sub.add_parser("result", help="a finished job's result summary")
    p_result.add_argument("job_id")
    _add_store_arg(p_result)

    p_list = sub.add_parser("list", help="every job document, in submit order")
    _add_store_arg(p_list)

    args = parser.parse_args(argv)
    queue = JobQueue(args.store)
    try:
        if args.command == "submit":
            request = {
                "algorithm": args.algorithm,
                "side": args.side,
                "trials": args.trials,
                "kind": "sort_steps",
                "seed": args.seed,
            }
            for key, value in (
                ("shard_size", args.shard_size),
                ("backend", args.backend),
                ("input_kind", args.input_kind),
                ("max_steps", args.max_steps),
            ):
                if value is not None:
                    request[key] = value
            doc = queue.submit(request)
            print(_job_line(doc))
            return 0
        if args.command == "status":
            print(_job_line(queue.load(args.job_id)))
            return 0
        if args.command == "result":
            doc = queue.load(args.job_id)
            if doc["state"] != "done":
                print(
                    f"job {doc['id']} is {doc['state']}, not done"
                    + (f": {doc['error']}" if doc.get("error") else ""),
                    file=sys.stderr,
                )
                return 1
            print(json.dumps(doc["result"], indent=2, sort_keys=True))
            return 0
        # list
        for doc in queue.list_jobs():
            print(_job_line(doc))
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# repro serve
# ---------------------------------------------------------------------------


def _result_summary(result: SampleResult) -> dict[str, Any]:
    """The JSON written back into a completed job document."""
    return {
        "count": result.stats.count,
        "mean": result.stats.mean,
        "std": result.stats.std,
        "values_digest": result.values_digest,
        "elapsed": result.meta.get("elapsed"),
        "store": result.meta.get("store"),
    }


class _Heartbeat(threading.Thread):
    """Bumps one held lease every ``interval`` seconds until stopped."""

    def __init__(self, lease: JobLease, interval: float):
        super().__init__(name="repro-serve-heartbeat", daemon=True)
        self.lease = lease
        self.interval = interval
        self.done = threading.Event()
        self.error: LeaseError | None = None

    def run(self) -> None:
        while not self.done.wait(self.interval):
            try:
                self.lease.heartbeat()
            except LeaseError as exc:
                self.error = exc
                return

    def stop(self) -> None:
        """Stop bumping; re-raise a failed heartbeat on the serving thread."""
        self.done.set()
        self.join()
        if self.error is not None:
            raise self.error


@dataclass
class _ServeSession:
    """One serve process's loop state, shared by --once and daemon mode."""

    queue: JobQueue
    store: LocalResultStore
    observer: Observer
    args: argparse.Namespace
    stop: threading.Event
    processed: int = 0
    failed: int = 0
    # Seeded per-process so N daemons sharing a queue jitter differently.
    rng: Any = field(default_factory=lambda: as_generator(os.getpid()))

    def _emit(self, state: str, doc: dict[str, Any], **fields: Any) -> None:
        self.observer.on_job_update(
            JobUpdate(
                job_id=doc["id"],
                fingerprint=doc.get("fingerprint", ""),
                state=state,
                **fields,
            )
        )

    @property
    def budget_spent(self) -> bool:
        return self.args.max_jobs is not None and self.processed >= self.args.max_jobs

    def serve_pass(self) -> int:
        """Claim and serve one pending job; returns the number claimed."""
        if self.budget_spent:
            return 0
        claimed = self.queue.claim_pending(
            limit=1, stale_after=self.args.lease_stale_after
        )
        if not claimed:
            return 0
        doc, lease = claimed[0]
        if lease.reclaimed:
            self._emit("reclaimed", doc)
        self._emit("leased", doc)
        if self.stop.is_set():
            # Draining: leave the job pending for another process.
            lease.release()
            self._emit("released", doc)
            return 1
        try:
            spec = spec_from_request(doc["request"])
        except ServiceError as exc:
            self._finish(doc, lease, error=str(exc))
            return 1
        self.queue.update(doc["id"], state="running", owner=lease.owner)
        self._emit("running", doc)
        heartbeat = _Heartbeat(lease, self.args.heartbeat_interval)
        heartbeat.start()
        failure = ""
        try:
            result = self._run_with_retries(spec, doc)
        except Exception as exc:
            # The serve loop outlives a failed job: the document records it.
            failure = repr(exc)
        finally:
            heartbeat.stop()
        if failure:
            self._finish(doc, lease, error=failure)
            return 1
        cache_hit = bool(result.meta["store"]["hit"])
        updated = self.queue.update(
            doc["id"],
            state="done",
            cache_hit=cache_hit,
            result=_result_summary(result),
        )
        self._emit("done", doc, cache_hit=cache_hit)
        lease.release()
        self._emit("released", doc)
        self.processed += 1
        print(_job_line(updated))
        return 1

    def _run_with_retries(
        self, spec: CampaignSpec, doc: dict[str, Any]
    ) -> SampleResult:
        """Run the job, retrying a transient :class:`CampaignError`."""
        attempts = 1
        while True:
            try:
                return self._run_locked(spec, doc)
            except CampaignError:
                # Transient campaign failure (lost workers, exhausted
                # shard retries): back off and run the spec again.
                if attempts > self.args.job_retries:
                    raise
                delay = self.args.retry_backoff * (2 ** (attempts - 1))
                attempts += 1
                self.stop.wait(delay * (0.5 + self.rng.random()))
                self.queue.update(doc["id"], attempts=attempts)

    def _run_locked(self, spec: CampaignSpec, doc: dict[str, Any]) -> SampleResult:
        """Run the campaign under the store's per-fingerprint lock.

        Two serve processes holding leases on duplicate jobs never run
        the fingerprint concurrently: the loser waits here (reported as a
        ``lock_wait`` update), and by the time it enters ``run_campaign``
        the winner's entry is in the store, so its run is a store hit
        with zero kernel steps.
        """
        lock = self.store.fingerprint_lock(
            spec.fingerprint, stale_after=LOCK_STALE_AFTER
        )
        if not lock.try_acquire():
            self._emit("lock_wait", doc)
            lock.acquire()
        try:
            return run_campaign(spec, workers=self.args.workers, store=self.store)
        finally:
            lock.release()

    def _finish(self, doc: dict[str, Any], lease: JobLease, *, error: str) -> None:
        self.queue.update(doc["id"], state="failed", error=error)
        self._emit("failed", doc, error=error)
        lease.release()
        self._emit("released", doc)
        self.failed += 1
        self.processed += 1
        print(f"{doc['id']}  failed  {error}")


def _serve_once(session: _ServeSession) -> None:
    """Serve jobs until none is claimable, the budget is spent or a drain."""
    served = 0
    while not session.stop.is_set() and session.serve_pass():
        served += 1
    if served:
        return
    queue = session.queue
    leased = sum(
        1 for d in queue.pending() if queue.lease_path(d["id"]).exists()
    )
    if leased:
        print(
            f"no claimable pending jobs "
            f"({leased} leased by other serve processes)"
        )
    else:
        print("no pending jobs")


def _daemon_loop(session: _ServeSession, args: argparse.Namespace) -> None:
    """Poll until stopped: serve, then sleep with jittered idle backoff."""
    idle = StopWatch().start()
    idle_rounds = 0
    while not session.stop.is_set():
        served = session.serve_pass()
        if session.budget_spent:
            return
        if served:
            idle = StopWatch().start()
            idle_rounds = 0
            continue
        if args.idle_exit is not None and idle.elapsed >= args.idle_exit:
            return
        # Jittered backoff: the base interval doubles (up to 8x) while the
        # queue stays empty, and every sleep is randomized +/-50% so N
        # daemons sharing a queue don't stampede the directory in sync.
        backoff = args.poll_interval * min(8, 2 ** min(idle_rounds, 3))
        idle_rounds += 1
        session.stop.wait(backoff * (0.5 + session.rng.random()))


def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "serve pending jobs one at a time through run_campaign "
            "(store cache + per-fingerprint lock + cross-process leases); "
            "runs as a polling daemon unless --once is given"
        ),
    )
    _add_store_arg(parser)
    parser.add_argument(
        "--once",
        action="store_true",
        help="serve the currently claimable pending set and exit",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="campaign worker processes per job (default 1)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None,
        help="serve at most this many pending jobs, then exit",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="base queue poll interval in daemon mode (default 0.5; idle "
        "polls back off up to 8x with +/-50%% jitter)",
    )
    parser.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="daemon exits after the queue has been empty this long "
        "(default: run until SIGINT/SIGTERM)",
    )
    parser.add_argument(
        "--lease-stale-after", type=float, default=60.0, metavar="SECONDS",
        help="reclaim another serve's job lease after its heartbeat has "
        "sat unchanged this long (dead on-host owners are reclaimed "
        "immediately; default 60)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=5.0, metavar="SECONDS",
        help="bump the held lease heartbeat this often while a job runs "
        "(default 5)",
    )
    parser.add_argument(
        "--job-retries", type=int, default=1,
        help="re-serve a job this many extra times after a transient "
        "CampaignError (default 1; other failures never retry)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base delay before a job retry; doubles per attempt, "
        "jittered (default 0.5)",
    )
    parser.add_argument(
        "--owner", default=None,
        help="owner token recorded in leases (default <host>:pid-<pid>)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the service metrics registry snapshot as JSON",
    )
    args = parser.parse_args(argv)
    if args.poll_interval <= 0:
        parser.error("--poll-interval must be positive")
    if args.heartbeat_interval <= 0:
        parser.error("--heartbeat-interval must be positive")
    if args.job_retries < 0:
        parser.error("--job-retries must be >= 0")

    queue = JobQueue(args.store, owner=args.owner)
    registry = MetricsRegistry()
    observer = MetricsObserver(registry)
    stop = threading.Event()

    # Graceful drain: first signal stops claiming and finishes the running
    # job (its lease is released as it completes); a second signal falls
    # through to the previous handler (default: terminate).
    previous: list[tuple[int, Any]] = []
    if threading.current_thread() is threading.main_thread():

        def _drain(signum: int, frame: Any) -> None:
            if stop.is_set():
                signal.signal(signum, signal.SIG_DFL)
                signal.raise_signal(signum)
            stop.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            previous.append((sig, signal.signal(sig, _drain)))

    session = _ServeSession(
        queue=queue,
        store=LocalResultStore(args.store),
        observer=observer,
        args=args,
        stop=stop,
    )
    try:
        with use_observer(observer):
            if args.once:
                _serve_once(session)
            else:
                _daemon_loop(session, args)
    finally:
        for sig, handler in previous:
            signal.signal(sig, handler)

    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(registry.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if session.failed else 0
