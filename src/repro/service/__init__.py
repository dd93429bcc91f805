"""repro.service — the durable job queue behind ``repro jobs`` / ``repro serve``.

* :class:`JobQueue` / :func:`spec_from_request` — the durable JSON job
  documents: ``repro jobs submit`` writes one per request, and
  ``repro serve`` rebuilds each leased job's spec and runs it through
  :func:`~repro.campaign.run_campaign` with the result store;
* :data:`JOB_STATES` — the job lifecycle vocabulary
  (``pending -> running -> done | failed``);
* :class:`JobLease` / :data:`LEASE_STATES` — the cross-process lease
  protocol serve daemons use to partition the pending set (claim via
  ``O_EXCL`` lease files, logical-clock heartbeats, stale reclaim).

Duplicate jobs are deduplicated by the store alone: serve runs each job
under the store's per-fingerprint lock, so a duplicate waits for the
first run and is then served as a store hit.  See docs/SERVICE.md.
"""

from repro.service.queue import (
    JOB_SCHEMA_VERSION,
    JOB_STATES,
    LEASE_STATES,
    JobLease,
    JobQueue,
    spec_from_request,
)

__all__ = [
    "JOB_STATES",
    "JOB_SCHEMA_VERSION",
    "LEASE_STATES",
    "JobLease",
    "JobQueue",
    "spec_from_request",
]
