"""Cross-process file locks: the shared primitive behind leases and single-flight.

:class:`FileLock` is an advisory mutual-exclusion lock backed by one file
created with ``O_CREAT | O_EXCL`` — the only cross-process atomic "claim"
primitive that works on every POSIX filesystem without fcntl range-lock
semantics (which NFS historically mishandles and which vanish when *any*
fd on the file closes).  It is the building block for:

* **job leases** — :meth:`repro.service.JobQueue.claim` marks a pending
  job as owned by one ``repro serve`` process, so N daemons partition the
  pending set instead of racing it;
* **fingerprint single-flight** — :meth:`~repro.store.local.LocalResultStore.
  fingerprint_lock` serializes campaign execution per store fingerprint,
  so two serve processes sharing a store never compute the same result
  twice.

Liveness protocol (a lock holder can die holding the lock):

* The lock file body records the owner — ``{"owner", "host", "pid",
  "heartbeat"}``.  ``heartbeat`` is a **logical counter** the owner bumps
  via :meth:`FileLock.heartbeat` while it works; no wall-clock timestamp
  is ever written (the repo's observability rules route clock reads
  through :mod:`repro.obs.timing`, and cross-host clocks cannot be
  compared anyway).
* A contender deems the lock **stale** when either
  (a) the recorded ``host`` matches its own and the recorded ``pid`` no
  longer exists — on-host liveness is authoritative, so a crashed owner
  is reclaimed immediately and a live-but-slow one never is; or
  (b) the owner is remote/unreadable and the contender has *observed*
  the lock file unchanged (same inode, mtime and body) for at least
  ``stale_after`` seconds of its own waiting, measured with a
  :class:`~repro.obs.timing.StopWatch`.
* Breaking a stale lock is itself race-free: breakers serialize on an
  ``O_EXCL`` ``<path>.break`` guard, confirm under it that the lock file
  is still byte-for-byte the one they judged stale (same inode, mtime
  and body), and rename it (``os.replace``) to a unique name — everyone
  else sees the file vanish or change and retries the ordinary
  ``O_EXCL`` create.
"""

from __future__ import annotations

import json
import os
import socket
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.errors import LeaseError
from repro.obs.timing import StopWatch

__all__ = ["LOCK_FORMAT", "FileLock"]

LOCK_FORMAT = "repro-lock"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on *this* host (signal 0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM and friends: the process exists but is not ours.
        return True
    return True


class FileLock:
    """One advisory cross-process lock file.

    Parameters
    ----------
    path:
        The lock file.  Parent directories are created on first acquire.
    stale_after:
        Observation bound for reclaiming a lock whose owner cannot be
        liveness-probed (remote host, unreadable body): the lock is
        breakable once *this* contender has watched it sit unchanged —
        no heartbeat bump, same inode — for this many seconds.  ``None``
        disables observation-based reclaim (dead on-host owners are
        still reclaimed immediately).
    poll_interval:
        Sleep between :meth:`acquire` attempts.
    owner:
        Free-form owner token recorded in the lock body (defaults to
        ``<host>:pid-<pid>``); surfaces in diagnostics and lease events.

    One instance is intended to persist across retry attempts — the
    staleness observation clock lives on the instance, so handing a fresh
    ``FileLock`` to every poll would never see a lock "sit unchanged".
    """

    def __init__(
        self,
        path: str | Path,
        *,
        stale_after: float | None = None,
        poll_interval: float = 0.05,
        owner: str | None = None,
    ):
        self.path = Path(path)
        if stale_after is not None and stale_after < 0:
            raise LeaseError(f"stale_after must be >= 0, got {stale_after}")
        self.stale_after = stale_after
        self.poll_interval = max(0.001, float(poll_interval))
        self._host = socket.gethostname()
        self.owner = owner or f"{self._host}:pid-{os.getpid()}"
        self._held = False
        self._heartbeat = 0
        #: set by the acquire that followed a stale-lock break, so callers
        #: can report the reclaim (``repro_serve_reclaimed_total``).
        self.reclaimed = False
        # Staleness observation: the last (inode, mtime, body) we saw and
        # a stopwatch running since we first saw it.
        self._observed: tuple[int, int, bytes] | None = None
        self._observed_for: StopWatch | None = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def held(self) -> bool:
        return self._held

    @property
    def heartbeat_count(self) -> int:
        return self._heartbeat

    def read_owner(self) -> dict[str, Any] | None:
        """The current lock body (``None`` when absent or unreadable)."""
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    # ------------------------------------------------------------------
    # Acquire / release.
    # ------------------------------------------------------------------

    def _body(self) -> str:
        return json.dumps(
            {
                "format": LOCK_FORMAT,
                "owner": self.owner,
                "host": self._host,
                "pid": os.getpid(),
                "heartbeat": self._heartbeat,
            },
            sort_keys=True,
        )

    def try_acquire(self) -> bool:
        """One non-blocking claim attempt; breaks a stale lock if it finds one."""
        if self._held:
            raise LeaseError(f"lock {self.path} is already held by this instance")
        reclaimed = False
        # Two rounds: a failed create may discover a stale lock, break it,
        # and then race other breakers for the fresh create.
        for _ in range(2):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._break_if_stale():
                    reclaimed = True
                    continue
                return False
            self._heartbeat = 0
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(self._body())
            self._held = True
            self.reclaimed = reclaimed
            self._observed = None
            self._observed_for = None
            return True
        return False

    def acquire(self, timeout: float | None = None) -> float:
        """Block until held; returns the seconds spent waiting.

        Raises :class:`~repro.errors.LeaseError` when ``timeout`` elapses
        first (the error carries the current owner token when readable).
        """
        watch = StopWatch().start()
        while True:
            if self.try_acquire():
                return watch.elapsed
            if timeout is not None and watch.elapsed >= timeout:
                owner = (self.read_owner() or {}).get("owner", "<unreadable>")
                raise LeaseError(
                    f"could not acquire {self.path} within {timeout}s "
                    f"(held by {owner})",
                    owner=str(owner),
                )
            time.sleep(self.poll_interval)

    @contextmanager
    def hold(self, timeout: float | None = None) -> Iterator["FileLock"]:
        """``with lock.hold():`` — acquire on entry, release on exit."""
        self.acquire(timeout)
        try:
            yield self
        finally:
            self.release()

    def release(self) -> None:
        """Delete the lock file; a no-op when not held."""
        if not self._held:
            return
        self._held = False
        self._heartbeat = 0
        try:
            self.path.unlink()
        except OSError:
            pass

    def bump(self) -> int:
        """Owner heartbeat: bump the logical counter and rewrite the body.

        Contenders watching the lock see the body change and restart
        their staleness clocks, so a long-running owner that keeps
        bumping is never reclaimed by rule (b).
        """
        if not self._held:
            raise LeaseError(f"cannot heartbeat {self.path}: lock not held")
        self._heartbeat += 1
        tmp = self.path.with_name(f"{self.path.name}.hb-{os.getpid()}")
        try:
            tmp.write_text(self._body(), encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError as exc:
            raise LeaseError(f"cannot heartbeat {self.path}: {exc}") from exc
        return self._heartbeat

    # ------------------------------------------------------------------
    # Staleness.
    # ------------------------------------------------------------------

    def _snapshot(self) -> tuple[int, int, bytes] | None:
        """``(inode, mtime_ns, body bytes)`` of the current lock file, read
        through one descriptor so all three describe the same file
        (``None`` when it is absent)."""
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return None
        try:
            stat = os.fstat(fd)
            chunks = []
            while chunk := os.read(fd, 65536):
                chunks.append(chunk)
        except OSError:
            return None
        finally:
            os.close(fd)
        return stat.st_ino, stat.st_mtime_ns, b"".join(chunks)

    def _break_if_stale(self) -> bool:
        """Break the current lock file if its owner is provably gone.

        Returns True when *this* contender won the break (or the file
        vanished on its own) and should retry the ``O_EXCL`` create.
        """
        snapshot = self._snapshot()
        if snapshot is None:
            return True  # vanished: retry the create immediately
        try:
            doc = json.loads(snapshot[2].decode("utf-8"))
        except ValueError:
            doc = None
        if isinstance(doc, dict) and doc.get("host") == self._host:
            pid = doc.get("pid")
            if isinstance(pid, int) and pid > 0:
                # On-host liveness is authoritative: reclaim a dead owner
                # now, never reclaim a live one however quiet it is.
                return not _pid_alive(pid) and self._steal(snapshot)
        if self.stale_after is None:
            return False
        # A heartbeat rewrites the body through a rename, so any owner
        # activity changes the snapshot and restarts the observation.
        if snapshot != self._observed:
            self._observed = snapshot
            self._observed_for = StopWatch().start()
            return False
        assert self._observed_for is not None
        if self._observed_for.elapsed < self.stale_after:
            return False
        return self._steal(snapshot)

    def _steal(self, judged: tuple[int, int, bytes]) -> bool:
        """Rename-then-unlink break of the exact file judged stale.

        Breakers serialize on an ``O_EXCL`` ``<path>.break`` guard and
        re-read the lock under it: a contender that judged an old lock
        stale must not rename away the fresh lock another breaker created
        in the meantime, which may even reuse the old inode number — so
        the inode, mtime and body bytes must all still match.  A breaker
        that finds the guard taken backs off until its next attempt.
        """
        guard = self.path.with_name(f"{self.path.name}.break")
        try:
            os.close(os.open(guard, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except OSError:
            return False
        try:
            if self._snapshot() != judged:
                return False  # released, heartbeat or already broken
            target = self.path.with_name(
                f"{self.path.name}.stale-{os.getpid()}-{id(self):x}"
            )
            try:
                os.replace(self.path, target)
            except OSError:
                return False
            try:
                target.unlink()
            except OSError:
                pass
        finally:
            try:
                guard.unlink()
            except OSError:
                pass
        self._observed = None
        self._observed_for = None
        return True
