"""File-backed job queue: the durable half of ``repro jobs`` / ``repro serve``.

Submissions must outlive the submitting command.  :class:`JobQueue`
persists each job as one JSON document under ``<root>/jobs/<id>.json``
(atomic tmp + ``os.replace`` updates, the same durability idiom as the
result store), holding the campaign *request* — the spec fields, not the
spec object — so any later ``repro serve`` process can rebuild the spec,
run it through :func:`~repro.campaign.run_campaign`, and write the
outcome back.

A job document::

    {
      "format": "repro-service-job",
      "schema_version": 1,
      "id": "j000001",
      "state": "pending" | "running" | "done" | "failed",
      "request": {"algorithm": ..., "side": ..., "trials": ..., ...},
      "fingerprint": "...",         # filled when the spec is built
      "cache_hit": false,
      "error": "",
      "result": {...}               # summary written on completion
    }

Multi-process protocol (N ``repro serve`` daemons sharing one queue):

* **Id allocation** is race-free: the full document is written to a tmp
  file and hard-linked to ``j<nnnnnn>.json`` — the link fails with
  ``EEXIST`` when a concurrent submitter took the id, and the loser
  retries with the next one.  Ids are claimed atomically *with* their
  complete content, so readers never observe a half-written submission.
* **Claims** go through :meth:`claim` / :meth:`claim_pending`: an
  ``O_EXCL`` lease file under ``jobs/leases/`` (see
  :class:`repro.store.FileLock`) marks a pending job as owned by one
  serve process.  Owners bump a logical-clock heartbeat while they work;
  a lease whose owner died (on-host pid probe) or whose heartbeat has
  sat unchanged for the staleness bound is **reclaimed** by the next
  claimant.
* **Updates** are merge-atomic: :meth:`update` wraps its
  read-modify-write in a per-document lock under ``jobs/locks/``, so two
  concurrent writers interleave whole updates instead of losing fields.
* **Corrupt documents** (torn writes from killed processes) never brick
  the queue: :meth:`list_jobs` quarantines them under
  ``jobs/quarantine/`` and reports a ``state="quarantined"`` marker
  entry, mirroring the result store's corruption-as-miss discipline.
"""

from __future__ import annotations

import errno
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaign.spec import CampaignSpec
from repro.errors import LeaseError, ServiceError
from repro.store.locks import FileLock

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JOB_STATES",
    "LEASE_STATES",
    "JobLease",
    "JobQueue",
    "spec_from_request",
]

JOB_SCHEMA_VERSION = 1
_FORMAT = "repro-service-job"

#: The job lifecycle, in order.  ``pending`` and ``running`` are live;
#: ``done`` and ``failed`` are terminal.
JOB_STATES = ("pending", "running", "done", "failed")

#: Lease-transition vocabulary reported as ``JobUpdate.state`` by serve
#: processes (alongside the job lifecycle states): a pending job was
#: ``leased``; a stale lease was ``reclaimed`` from a dead/silent owner
#: before the claim; a lease was ``released`` on completion or drain; a
#: job waited on the cross-process fingerprint lock (``lock_wait``).
LEASE_STATES = ("leased", "reclaimed", "released", "lock_wait")

#: Request fields the CLI may set; anything else in a document is rejected
#: so schema drift fails loudly instead of silently sampling the wrong thing.
_REQUEST_FIELDS = (
    "algorithm",
    "side",
    "trials",
    "kind",
    "seed",
    "input_kind",
    "shard_size",
    "max_steps",
    "backend",
)

#: Bound on id-allocation retries under contention; hitting it means
#: thousands of submitters raced this one, which is a deployment bug.
_ID_ATTEMPTS = 1000


def spec_from_request(request: dict[str, Any]) -> CampaignSpec:
    """Rebuild the :class:`CampaignSpec` a job document describes.

    The CLI queue carries ``kind="sort_steps"`` requests only (a
    statistic callable does not survive JSON); ``shard_size`` defaults to
    64 to match the :func:`repro.experiments.sample` facade, so queued
    jobs share fingerprints — and store entries — with facade calls.
    """
    unknown = sorted(set(request) - set(_REQUEST_FIELDS))
    if unknown:
        raise ServiceError(f"unknown job request field(s): {', '.join(unknown)}")
    if request.get("kind", "sort_steps") != "sort_steps":
        raise ServiceError(
            "queued jobs support kind='sort_steps' only; statistic "
            "callables cannot be serialized into a job document"
        )
    try:
        return CampaignSpec(
            algorithm=request["algorithm"],
            side=int(request["side"]),
            trials=int(request["trials"]),
            kind="sort_steps",
            input_kind=request.get("input_kind"),
            seed=request.get("seed", 0),
            backend=request.get("backend"),
            max_steps=request.get("max_steps"),
            shard_size=int(request.get("shard_size") or 64),
        )
    except KeyError as exc:
        raise ServiceError(f"job request is missing field {exc.args[0]!r}") from exc


@dataclass
class JobLease:
    """One claimed job: the ticket a serve process holds while working.

    ``reclaimed`` records whether the claim broke a stale lease left by a
    dead or silent owner (surfaced as a ``reclaimed`` lease event and the
    ``repro_serve_reclaimed_total`` counter).
    """

    job_id: str
    lock: FileLock
    reclaimed: bool = False

    @property
    def active(self) -> bool:
        return self.lock.held

    @property
    def owner(self) -> str:
        return self.lock.owner

    def heartbeat(self) -> int:
        """Bump the lease's logical clock; contenders see it as liveness."""
        return self.lock.bump()

    def release(self) -> None:
        """Give the job up (done, failed, or draining); idempotent."""
        self.lock.release()


class JobQueue:
    """Durable job documents under ``<root>/jobs/``.

    Parameters
    ----------
    root:
        The store directory (documents live under ``root/jobs/``).
    owner:
        Owner token recorded in every lease this instance claims;
        defaults to ``<host>:pid-<pid>``.
    """

    def __init__(self, root: str | Path, *, owner: str | None = None):
        self.root = Path(root)
        self.owner = owner
        # Lease locks are cached per job id: observation-based staleness
        # needs the SAME FileLock instance to watch a lease across polls.
        self._lease_locks: dict[str, FileLock] = {}

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    @property
    def leases_dir(self) -> Path:
        return self.jobs_dir / "leases"

    @property
    def quarantine_dir(self) -> Path:
        return self.jobs_dir / "quarantine"

    def job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def lease_path(self, job_id: str) -> Path:
        return self.leases_dir / f"{job_id}.lease"

    # ------------------------------------------------------------------
    # Submission + updates.
    # ------------------------------------------------------------------

    def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        """Validate ``request``, persist a pending job, return its document.

        Safe against concurrent submitters: the id is claimed by an
        atomic hard-link (``EEXIST`` on collision → retry with the next
        id), so two ``repro jobs submit`` processes can never clobber
        each other's documents.
        """
        spec = spec_from_request(request)  # fail before touching disk
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "format": _FORMAT,
            "schema_version": JOB_SCHEMA_VERSION,
            "id": "",
            "state": "pending",
            "request": dict(request),
            "fingerprint": spec.fingerprint,
            "cache_hit": False,
            "error": "",
            "result": None,
        }
        for _ in range(_ID_ATTEMPTS):
            doc["id"] = self._candidate_id()
            if self._create_exclusive(doc):
                return doc
        raise ServiceError(
            f"could not allocate a job id under {self.jobs_dir} after "
            f"{_ID_ATTEMPTS} attempts"
        )

    def _create_exclusive(self, doc: dict[str, Any]) -> bool:
        """Atomically materialize ``doc`` at its id; False on id collision."""
        path = self.job_path(doc["id"])
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        # pid AND thread id: two threads of one process racing on the same
        # candidate id must not share (and mutually unlink) a tmp file.
        tmp = path.parent / (
            f".submit-{os.getpid()}-{threading.get_ident()}-{doc['id']}.tmp"
        )
        tmp.write_text(text, encoding="utf-8")
        try:
            # Hard link = O_EXCL claim of the id + complete content in one
            # atomic step (readers never see a torn submission).
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        except OSError as exc:
            if exc.errno not in (errno.EPERM, errno.EOPNOTSUPP, errno.ENOTSUP):
                raise ServiceError(
                    f"cannot create job document {path}: {exc}"
                ) from exc
            # Filesystem without hard links: O_EXCL still claims the id
            # atomically; content atomicity degrades to the quarantine
            # path (a torn write is skipped by list_jobs, never merged).
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            return True
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass

    def _candidate_id(self) -> str:
        highest = 0
        for path in self.jobs_dir.glob("j*.json"):
            try:
                highest = max(highest, int(path.stem[1:]))
            except ValueError:
                continue
        return f"j{highest + 1:06d}"

    def update(self, job_id: str, **fields: Any) -> dict[str, Any]:
        """Merge ``fields`` into a job document atomically.

        The read-modify-write runs under a per-document cross-process
        lock, so concurrent writers serialize whole merges — the document
        always reflects a sequence of complete updates, never a torn
        interleaving that lost one writer's fields.
        """
        lock = FileLock(
            self.jobs_dir / "locks" / f"{job_id}.lock",
            stale_after=5.0,
            poll_interval=0.01,
            owner=self.owner,
        )
        with lock.hold(timeout=30.0):
            doc = self.load(job_id)
            doc.update(fields)
            self._write(doc)
        return doc

    # ------------------------------------------------------------------
    # Leases.
    # ------------------------------------------------------------------

    def claim(
        self, job_id: str, *, stale_after: float | None = None
    ) -> JobLease | None:
        """Try to lease ``job_id``; ``None`` when another owner holds it.

        A lease whose owner is dead (on-host pid probe) is reclaimed
        immediately; one whose heartbeat this queue instance has watched
        sit unchanged for ``stale_after`` seconds is reclaimed as stale
        (``None`` disables the observation rule).
        """
        lock = self._lease_locks.get(job_id)
        if lock is None or lock.held:
            if lock is not None and lock.held:
                # We already own it — claiming twice is a protocol bug.
                raise LeaseError(
                    f"lease for {job_id} is already held by this queue",
                    job_id=job_id,
                    owner=lock.owner,
                )
            lock = FileLock(
                self.lease_path(job_id),
                stale_after=stale_after,
                owner=self.owner,
            )
            self._lease_locks[job_id] = lock
        lock.stale_after = stale_after
        if not lock.try_acquire():
            return None
        return JobLease(job_id=job_id, lock=lock, reclaimed=lock.reclaimed)

    def claim_pending(
        self,
        *,
        limit: int | None = None,
        stale_after: float | None = None,
    ) -> list[tuple[dict[str, Any], JobLease]]:
        """Lease up to ``limit`` pending jobs, in submission order.

        Concurrent serve processes calling this partition the pending set:
        each job's ``O_EXCL`` lease admits exactly one claimant.  Every
        claimed document is re-read under the lease, so a job completed
        between listing and claiming is skipped, not re-run.
        """
        claimed: list[tuple[dict[str, Any], JobLease]] = []
        for doc in self.pending():
            if limit is not None and len(claimed) >= limit:
                break
            lease = self.claim(doc["id"], stale_after=stale_after)
            if lease is None:
                continue
            try:
                current = self.load(doc["id"])
            except ServiceError:
                lease.release()
                continue
            if current["state"] != "pending":
                lease.release()
                continue
            claimed.append((current, lease))
        return claimed

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------

    def load(self, job_id: str) -> dict[str, Any]:
        try:
            doc = json.loads(self.job_path(job_id).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ServiceError(
                f"no job {job_id!r} under {self.jobs_dir}", job_id=job_id
            ) from None
        except (OSError, ValueError) as exc:
            raise ServiceError(
                f"unreadable job document {self.job_path(job_id)}: {exc}",
                job_id=job_id,
            ) from exc
        if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
            raise ServiceError(
                f"{self.job_path(job_id)} is not a job document", job_id=job_id
            )
        return doc

    def list_jobs(self) -> list[dict[str, Any]]:
        """Every job document, in id (submission) order.

        A document that cannot be parsed (torn write from a killed
        process, manual damage) is moved to ``jobs/quarantine/`` and
        reported as a ``state="quarantined"`` marker entry — one bad
        write never bricks the listing or a serve pass.
        """
        if not self.jobs_dir.exists():
            return []
        docs = []
        for path in sorted(self.jobs_dir.glob("j*.json")):
            try:
                docs.append(self.load(path.stem))
            except ServiceError:
                marker = self._quarantine_job(path)
                if marker is not None:
                    docs.append(marker)
        return docs

    def pending(self) -> list[dict[str, Any]]:
        return [doc for doc in self.list_jobs() if doc["state"] == "pending"]

    def _quarantine_job(self, path: Path) -> dict[str, Any] | None:
        """Move a corrupt document aside; a marker entry for the listing.

        Returns ``None`` when the file vanished (a concurrent process
        quarantined — or was still publishing — it); the entry simply
        drops out of this listing.
        """
        if not path.exists():
            return None
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        n = 1
        while (target := self.quarantine_dir / f"{path.stem}-{n}.json").exists():
            n += 1
        try:
            os.replace(path, target)
        except OSError:
            return None
        return {
            "format": _FORMAT,
            "schema_version": JOB_SCHEMA_VERSION,
            "id": path.stem,
            "state": "quarantined",
            "request": {},
            "fingerprint": "",
            "cache_hit": False,
            "error": f"unreadable job document quarantined to {target}",
            "result": None,
        }

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _write(self, doc: dict[str, Any]) -> None:
        path = self.job_path(doc["id"])
        tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
        tmp.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
