"""JSONL trace sink: a durable, schema-stable record of executor events.

Each event becomes one JSON object per line (gzip-compressed when the
path ends in ``.gz``).  Grids are never dumped raw
(a 32x32 batch would drown the file); instead step and cycle events carry a
``grid_digest`` — a short BLAKE2 digest of the grid snapshot — which is
enough to assert that a replayed run (same seed, same config) visits the
identical sequence of states.

Schema (version 1): every record has ``{"v": 1, "seq": int, "event": str}``
plus per-event fields:

========== ==============================================================
event      fields
========== ==============================================================
run_start  executor, algorithm, side, rows?, cols?, batch_shape, max_steps, order
step       t, swaps?, grid_digest?
cycle      cycle, t, grid_digest?, info?
run_end    steps (int | list | null), completed (bool | null), wall_time
========== ==============================================================

Older traces may also carry ``comparisons`` on step records; the reader
still accepts it.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.errors import DimensionError
from repro.obs.events import CycleEvent, Observer, RunEnd, RunStart, StepEvent

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "grid_digest",
    "JsonlTraceSink",
    "read_trace",
    "validate_trace_events",
]

TRACE_SCHEMA_VERSION = 1

_EVENT_FIELDS: dict[str, set[str]] = {
    "run_start": {
        "executor", "algorithm", "side", "rows", "cols",
        "batch_shape", "max_steps", "order",
    },
    # ``comparisons``: written by older producers, still accepted.
    "step": {"t", "swaps", "comparisons", "grid_digest"},
    "cycle": {"cycle", "t", "grid_digest", "info"},
    "run_end": {"steps", "completed", "wall_time"},
}
_REQUIRED_FIELDS: dict[str, set[str]] = {
    "run_start": {"executor", "algorithm", "side"},
    "step": {"t"},
    "cycle": {"cycle", "t"},
    "run_end": {"wall_time"},
}


def grid_digest(grid: np.ndarray) -> str:
    """Short stable digest of a grid's contents (dtype-independent)."""
    arr = np.ascontiguousarray(np.asarray(grid, dtype=np.int64))
    h = hashlib.blake2b(digest_size=8)
    h.update(str(arr.shape).encode())
    # The contiguous buffer in place: the bytes ``tobytes()`` would copy.
    h.update(arr)
    return h.hexdigest()


def _json_safe(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class JsonlTraceSink(Observer):
    """Write every event as one JSON line to ``path``.

    Usable as a context manager; :meth:`close` flushes and releases the
    file handle.  With ``digest_grids`` (default on) step/cycle events get a
    ``grid_digest`` field; turn it off for very hot loops where even
    digesting is too much.

    A path ending in ``.gz`` (conventionally ``.jsonl.gz``) is written
    gzip-compressed; :func:`read_trace` transparently reads either form, so
    a compressed trace replays identically to a plain one.
    """

    def __init__(self, path: str | Path, *, digest_grids: bool = True):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.digest_grids = digest_grids
        # The last grid digested and its digest: a cycle event carries its
        # step's grid, which is hashed once.
        self._digested: tuple[np.ndarray | None, str | None] = (None, None)
        self._fh: IO[str] | None = _open_trace(self.path, "wt")
        self._seq = 0

    def _emit(self, event: str, fields: dict[str, Any]) -> None:
        if self._fh is None:
            raise DimensionError(f"trace sink {self.path} is closed")
        record = {"v": TRACE_SCHEMA_VERSION, "seq": self._seq, "event": event}
        record.update({k: _json_safe(v) for k, v in fields.items() if v is not None})
        self._fh.write(json.dumps(record) + "\n")
        self._seq += 1

    def on_run_start(self, event: RunStart) -> None:
        self._emit(
            "run_start",
            {
                "executor": event.executor,
                "algorithm": event.algorithm,
                "side": event.rows,
                # Only worth a field when the mesh is not square.
                "rows": event.rows if event.rows != event.cols else None,
                "cols": event.cols if event.rows != event.cols else None,
                "batch_shape": list(event.batch_shape),
                "max_steps": event.max_steps,
                "order": event.order or None,
            },
        )

    def _digest(self, grid: np.ndarray | None) -> str | None:
        if not self.digest_grids or grid is None:
            return None
        if grid is not self._digested[0]:
            self._digested = (grid, grid_digest(grid))
        return self._digested[1]

    def on_step(self, event: StepEvent) -> None:
        self._emit(
            "step",
            {
                "t": event.t,
                "swaps": event.swaps,
                "grid_digest": self._digest(event.grid),
            },
        )

    def on_cycle(self, event: CycleEvent) -> None:
        self._emit(
            "cycle",
            {
                "cycle": event.cycle,
                "t": event.t,
                "grid_digest": self._digest(event.grid),
                "info": event.info or None,
            },
        )

    def on_run_end(self, event: RunEnd) -> None:
        steps = event.steps
        if steps is not None:
            steps = _json_safe(np.asarray(steps)) if not isinstance(steps, int) else steps
        completed = event.completed
        if completed is not None and not isinstance(completed, bool):
            arr = np.asarray(completed)
            completed = bool(arr.all())
        self._emit(
            "run_end",
            {"steps": steps, "completed": completed, "wall_time": event.wall_time},
        )

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _open_trace(path: Path, mode: str) -> IO[str]:
    """Text handle for ``path``; gzip-compressed when it ends in ``.gz``."""
    if path.suffix == ".gz":
        return gzip.open(path, mode, encoding="utf-8")
    return path.open(mode, encoding="utf-8")


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load and validate a JSONL trace (plain or ``.gz``); returns the
    event records."""
    with _open_trace(Path(path), "rt") as fh:
        lines = fh.read().splitlines()
    events = [json.loads(line) for line in lines if line.strip()]
    validate_trace_events(events)
    return events


def validate_trace_events(events: list[dict[str, Any]]) -> None:
    """Raise :class:`DimensionError` if ``events`` violate the schema."""
    for i, record in enumerate(events):
        if record.get("v") != TRACE_SCHEMA_VERSION:
            raise DimensionError(
                f"trace record {i}: unsupported schema version {record.get('v')!r}"
            )
        if record.get("seq") != i:
            raise DimensionError(
                f"trace record {i}: bad sequence number {record.get('seq')!r}"
            )
        event = record.get("event")
        if event not in _EVENT_FIELDS:
            raise DimensionError(f"trace record {i}: unknown event {event!r}")
        fields = set(record) - {"v", "seq", "event"}
        unknown = fields - _EVENT_FIELDS[event]
        if unknown:
            raise DimensionError(
                f"trace record {i} ({event}): unknown fields {sorted(unknown)}"
            )
        missing = _REQUIRED_FIELDS[event] - fields
        if missing:
            raise DimensionError(
                f"trace record {i} ({event}): missing fields {sorted(missing)}"
            )
