"""Local-directory result store: the one result-store implementation.

Layout (sharded by fingerprint prefix so no directory grows unbounded)::

    <root>/
      ab/
        ab12cd34ef567890/
          result.json                 # envelope: integrity hash + payload
          manifest.json               # replayable RunManifest of the producer
      quarantine/
        ab12cd34ef567890-1.json       # corrupted entries, kept for forensics

Durability protocol:

* **Atomic writes.**  ``result.json`` is written to a
  ``.tmp-<pid>-<thread id>`` sibling and ``os.replace``d into place, so
  readers only ever see absent or complete entries.  A torn write leaves
  a tmp file that reads ignore; the next put of that fingerprint sweeps
  it once its writer's pid is dead on this host, so a live peer's
  in-flight write is never swept away.
* **Integrity-hashed.**  The envelope records a blake2b digest of the
  canonical payload JSON.  A read whose recomputed digest differs (bit
  rot, manual edits, torn replacement on non-atomic filesystems) is
  **quarantined** — moved aside, reported as a
  :class:`~repro.obs.events.StoreEvent` ``quarantine`` + ``miss`` — and
  the caller recomputes.  Corruption degrades to a cache miss, never an
  error.
* **Read-only hits.**  ``get`` reads and verifies; a hit writes nothing,
  so any number of processes can serve from one tree concurrently.

Every operation is reported as a :class:`~repro.obs.events.StoreEvent`
on the ambient observer stream (hit/miss/put/quarantine), which
:class:`~repro.obs.metrics.MetricsObserver` tallies into the
``repro_service_store_*`` counters.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

from repro.errors import StoreError
from repro.obs.context import resolve_observer
from repro.obs.events import StoreEvent
from repro.store.base import STORE_SCHEMA_VERSION, payload_integrity

__all__ = ["LocalResultStore", "resolve_store"]

_FORMAT = "repro-result-store"


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


def _emit(op: str, fingerprint: str, store: str, nbytes: int | None = None) -> None:
    """Report one store operation on the ambient observer stream."""
    obs = resolve_observer(None)
    if obs is not None:
        obs.on_store_event(
            StoreEvent(op=op, fingerprint=fingerprint, store=store, bytes=nbytes)
        )


class LocalResultStore:
    """Content-addressed result cache in a local directory tree.

    Keys are campaign fingerprints; values are the payload dicts produced
    by :func:`~repro.store.base.encode_result`.  ``get`` returning ``None``
    *is* the miss signal — an absent or corrupted entry never raises
    (corruption is quarantined and reported as a miss), so a degraded
    cache always falls back to recomputation.

    Parameters
    ----------
    root:
        Store directory; created on first write.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        # Serializes this instance's writers (put/delete) across threads.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Paths.
    # ------------------------------------------------------------------

    def entry_dir(self, fingerprint: str) -> Path:
        """The directory holding one fingerprint's files."""
        return self.root / fingerprint[:2] / fingerprint

    def result_path(self, fingerprint: str) -> Path:
        """The entry's payload file (``result.json``)."""
        return self.entry_dir(fingerprint) / "result.json"

    def describe(self) -> str:
        return f"local:{self.root}"

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        """The stored payload for ``fingerprint``, or ``None`` on a miss."""
        payload = self._read_checked(fingerprint)
        if payload is None:
            _emit("miss", fingerprint, self.describe())
            return None
        _emit("hit", fingerprint, self.describe())
        return payload

    def _read_checked(self, fingerprint: str) -> dict[str, Any] | None:
        """Read + verify one entry; quarantine anything unusable."""
        path = self.result_path(fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            return None
        except UnicodeDecodeError:
            # Not even UTF-8 (bit rot, a foreign binary file): as corrupt
            # as any malformed envelope.
            self._quarantine(fingerprint, path)
            return None
        parsed = self._parse_envelope(text)
        if parsed is None:
            self._quarantine(fingerprint, path)
            return None
        payload, recorded, fp = parsed
        if fp != fingerprint or payload_integrity(payload) != recorded:
            self._quarantine(fingerprint, path)
            return None
        return payload

    @staticmethod
    def _parse_envelope(text: str) -> tuple[dict[str, Any], str, str] | None:
        """``(payload, integrity, fingerprint)``; None for anything malformed."""
        try:
            envelope = json.loads(text)
        except ValueError:
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != _FORMAT
            or envelope.get("schema_version") != STORE_SCHEMA_VERSION
        ):
            return None
        payload = envelope.get("payload")
        recorded = envelope.get("integrity")
        fp = envelope.get("fingerprint")
        if not isinstance(payload, dict) or not isinstance(recorded, str):
            return None
        if not isinstance(fp, str):
            return None
        return payload, recorded, fp

    def _quarantine(self, fingerprint: str, path: Path) -> None:
        """Move a corrupted entry aside and drop its entry directory."""
        qdir = self.root / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        n = 1
        while (target := qdir / f"{fingerprint}-{n}.json").exists():
            n += 1
        try:
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self._drop_entry_dir(fingerprint)
        _emit("quarantine", fingerprint, self.describe())

    def __contains__(self, fingerprint: str) -> bool:
        """Cheap existence probe; never counts as a hit or miss."""
        return self.result_path(fingerprint).exists()

    def fingerprints(self) -> list[str]:
        """Every intact-looking entry on disk (no integrity check)."""
        if not self.root.exists():
            return []
        return sorted(
            path.parent.name
            for path in self.root.glob("??/*/result.json")
        )

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        payload: dict[str, Any],
        *,
        manifest: dict[str, Any] | None = None,
    ) -> Path:
        """Persist ``payload`` atomically; returns the entry's result path.

        ``manifest`` (a :meth:`~repro.obs.manifest.RunManifest.as_dict`
        mapping) is written alongside the payload so every cached result
        names the replayable run that produced it.
        """
        envelope = {
            "format": _FORMAT,
            "schema_version": STORE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "integrity": payload_integrity(payload),
            "payload": payload,
        }
        text = json.dumps(envelope, sort_keys=True)
        path = self.result_path(fingerprint)
        suffix = f"tmp-{os.getpid()}-{threading.get_ident()}"
        with self._lock:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                self._sweep_tmp(path.parent)
                tmp = path.parent / f"result.json.{suffix}"
                tmp.write_text(text, encoding="utf-8")
                os.replace(tmp, path)  # atomic: readers never see torn entries
                if manifest is not None:
                    mtmp = path.parent / f"manifest.json.{suffix}"
                    mtmp.write_text(
                        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8",
                    )
                    os.replace(mtmp, path.parent / "manifest.json")
            except OSError as exc:
                raise StoreError(
                    f"cannot write store entry {fingerprint} under {self.root}: {exc}"
                ) from exc
        _emit("put", fingerprint, self.describe(), len(text))
        return path

    def delete(self, fingerprint: str) -> bool:
        """Drop an entry; True if one existed."""
        with self._lock:
            existed = self.result_path(fingerprint).exists()
            self._drop_entry_dir(fingerprint)
        return existed

    def _drop_entry_dir(self, fingerprint: str) -> None:
        entry = self.entry_dir(fingerprint)
        if not entry.exists():
            return
        for child in entry.iterdir():
            try:
                child.unlink()
            except OSError:
                pass
        try:
            entry.rmdir()
        except OSError:
            pass

    def _sweep_tmp(self, entry_dir: Path) -> None:
        """Remove tmp files that writers killed mid-put left behind.

        A tmp file is debris only once its writer is gone: a live peer
        may be between its tmp write and its ``os.replace``.  The writer's
        pid is the first number after ``.tmp-``; a name without one is
        not ours and is swept.
        """
        for stale in entry_dir.glob("*.tmp-*"):
            pid = stale.name.rpartition(".tmp-")[2].partition("-")[0]
            if pid.isdigit() and _pid_alive(int(pid)):
                continue
            try:
                stale.unlink()
            except OSError:
                pass


def resolve_store(spec: "str | Path | LocalResultStore") -> LocalResultStore:
    """A live store for a :class:`LocalResultStore` or a directory path."""
    if isinstance(spec, LocalResultStore):
        return spec
    if isinstance(spec, Path) or (isinstance(spec, str) and spec):
        return LocalResultStore(spec)
    raise StoreError(f"store must be a LocalResultStore or a path, got {spec!r}")
