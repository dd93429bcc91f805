"""Content-addressed certificate cache: memory LRU + optional disk store.

Certificates are expensive to compute (an exhaustive 0-1 sweep interprets
up to ``2^16`` matrices through every comparator step) and pure functions
of the **schedule value** and mesh shape, so they are cached aggressively:

* :func:`schedule_digest` fingerprints a schedule by *value identity* —
  the comparator IR, target order, and mesh shape, with the display
  ``name`` deliberately excluded.  Two structurally identical schedules
  (a rebuilt spec instance, a mutant that happens to reproduce the
  original steps) share one certificate.
* An in-process LRU (:func:`cache_get` / :func:`cache_put`) makes
  re-analysis within one process a pure lookup; the hit/miss counters and
  the global interpreter-step counter surface through
  :func:`semantics_cache_info`, so tests can assert that a repeated
  certification runs **zero** interpreter steps.
* :class:`CertificateStore` persists certificates on disk with the result
  store's idioms (PR 8): sharded ``<key[:2]>/<key>.json`` layout, atomic
  tmp-file + ``os.replace`` writes, an embedded integrity digest verified
  on read, and quarantine-as-miss for corrupt payloads — a bad file is
  renamed aside and recomputed, never trusted and never fatal.

This module is part of :mod:`repro.analysis` and therefore executor-free:
it imports nothing from the backends, engines, or mesh layers.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.core.schedule import LineOp, Op, PairOp, Schedule, WrapOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (checker imports us)
    from repro.analysis.semantics.checker import SortednessCertificate

__all__ = [
    "schedule_digest",
    "certificate_key",
    "CertificateStore",
    "SemanticsCacheInfo",
    "semantics_cache_info",
    "semantics_cache_clear",
]

_DIGEST_SIZE = 16  # 128-bit collision resistance, matching the result store


def _op_doc(op: Op) -> list[Any]:
    """A canonical JSON-stable encoding of one comparator-IR op."""
    if isinstance(op, WrapOp):
        return ["wrap"]
    if isinstance(op, PairOp):
        return ["pair", list(op.low), list(op.high)]
    if isinstance(op, LineOp):
        return ["line", op.axis, int(op.offset), int(op.direction), op.lines]
    # Unknown op types still digest deterministically; the checker reports
    # them as non-oblivious (SCH003) rather than failing here.
    return ["opaque", type(op).__name__, repr(op)]


def schedule_digest(schedule: Schedule, rows: int, cols: int) -> str:
    """Fingerprint ``schedule`` on a ``rows x cols`` mesh by value identity.

    The digest covers exactly what the 0-1 semantics depend on: the step
    list (as comparator IR), the target order, the even-side requirement,
    and the mesh shape.  The display name and metadata are excluded — a
    renamed or rebuilt schedule with identical steps is the same network.
    """
    doc = {
        "order": schedule.order,
        "requires_even_side": bool(schedule.requires_even_side),
        "rows": int(rows),
        "cols": int(cols),
        "steps": [[_op_doc(op) for op in step.ops] for step in schedule.steps],
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode(), digest_size=_DIGEST_SIZE).hexdigest()


def certificate_key(digest: str, params: dict[str, Any]) -> str:
    """The cache key for one ``(schedule value, checking mode)`` pair.

    ``params`` pins everything beyond the schedule that can change the
    answer — the checking mode and, for sampled runs, the sample plan —
    so an exhaustive certificate never aliases a sampled one.
    """
    payload = json.dumps(params, sort_keys=True, separators=(",", ":"))
    suffix = hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()
    return f"{digest}-{suffix}"


# ---------------------------------------------------------------------------
# In-process LRU + metrics.
# ---------------------------------------------------------------------------


class SemanticsCacheInfo(NamedTuple):
    """Snapshot of the certificate cache and interpreter-work counters."""

    hits: int
    misses: int
    maxsize: int
    currsize: int
    interpreter_steps: int  # total batch steps executed since last clear


_CACHE_MAXSIZE = 256
_cache: "OrderedDict[str, SortednessCertificate]" = OrderedDict()
_lock = threading.Lock()
_hits = 0
_misses = 0
_interpreter_steps = 0


def cache_get(key: str) -> "SortednessCertificate | None":
    """Look ``key`` up in the in-process cache, counting a hit or miss."""
    global _hits, _misses
    with _lock:
        cert = _cache.get(key)
        if cert is not None:
            _cache.move_to_end(key)
            _hits += 1
            return cert
        _misses += 1
        return None


def cache_put(key: str, certificate: "SortednessCertificate") -> None:
    """Insert ``certificate`` under ``key``, evicting least-recently-used."""
    with _lock:
        _cache[key] = certificate
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_MAXSIZE:
            _cache.popitem(last=False)


def add_interpreter_steps(count: int) -> None:
    """Record ``count`` executed batch steps (the certifier's work metric)."""
    global _interpreter_steps
    with _lock:
        _interpreter_steps += int(count)


def semantics_cache_info() -> SemanticsCacheInfo:
    """Hit/miss/size statistics plus the interpreter-step counter."""
    with _lock:
        return SemanticsCacheInfo(
            _hits, _misses, _CACHE_MAXSIZE, len(_cache), _interpreter_steps
        )


def semantics_cache_clear() -> None:
    """Drop every cached certificate and reset all counters."""
    global _hits, _misses, _interpreter_steps
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
        _interpreter_steps = 0


# ---------------------------------------------------------------------------
# Disk store.
# ---------------------------------------------------------------------------


def _payload_integrity(payload: dict[str, Any]) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(body.encode(), digest_size=_DIGEST_SIZE).hexdigest()


class CertificateStore:
    """Durable, content-addressed certificate storage under one directory.

    Layout mirrors the local result store: ``<root>/<key[:2]>/<key>.json``,
    each file a JSON document ``{"integrity": ..., "certificate": ...}``.
    Writes are atomic (tmp file + ``os.replace``); reads verify the
    integrity digest and quarantine anything that fails — a corrupt or
    truncated file becomes ``<name>.quarantine`` and the lookup reports a
    miss, so the certifier recomputes instead of trusting bad bytes.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored certificate payload for ``key``, or ``None``."""
        path = self.path_for(key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            # Unreadable, not UTF-8 (bit rot, a foreign binary file) or not
            # JSON: quarantined, and a miss.
            self._quarantine(path)
            return None
        payload = doc.get("certificate") if isinstance(doc, dict) else None
        if not isinstance(payload, dict) or doc.get(
            "integrity"
        ) != _payload_integrity(payload):
            self._quarantine(path)
            return None
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> Path:
        """Persist ``payload`` under ``key`` atomically; returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"integrity": _payload_integrity(payload), "certificate": payload}
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    def keys(self) -> list[str]:
        """Every stored certificate key (sorted, quarantined files excluded)."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*/*.json"))

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_name(f"{path.name}.quarantine"))
        except OSError:  # pragma: no cover - racing cleanup is fine
            pass
