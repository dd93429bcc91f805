"""Hierarchical span profiler: where a run's time (and memory) goes.

The metrics registry answers "how many / how long in total"; this module
answers "in which phase".  A :class:`SpanProfiler` records a tree of named
spans — ``span("compile")``, ``span("kernel")``, ``span("merge")``,
``span("checkpoint")`` — each carrying wall time, CPU time, an invocation
count, and (opt-in) the tracemalloc peak while the span was open.

Repeated siblings **fold**: closing a second ``span("kernel")`` under the
same parent accumulates into the first instead of growing the tree, so a
Monte-Carlo shard that executes hundreds of runs produces a fixed-size
profile (``count`` records how many invocations folded in).

Installation mirrors the observer context (:mod:`repro.obs.context`)::

    prof = SpanProfiler()
    with use_profiler(prof):
        run_sort("vectorized", schedule, grid)   # driver spans recorded
    print(render_spans(prof.roots))

Instrumented code calls the module-level :func:`span`; with no profiler
installed it returns a shared no-op context manager, so the cost of an
unprofiled ``with span(...)`` block is one ContextVar read — the package's
zero-overhead-when-disabled guarantee extends to profiling.

Span trees serialize to plain dicts (:meth:`Span.as_dict` /
:func:`span_from_dict`), which is how campaign workers ship their trees to
the coordinator through the shard result/checkpoint channel; the
coordinator grafts them (:meth:`SpanProfiler.graft`) into one
cross-process tree per campaign.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import DimensionError

__all__ = [
    "Span",
    "SpanProfiler",
    "span",
    "use_profiler",
    "current_profiler",
    "span_from_dict",
    "aggregate_spans",
    "render_spans",
]


@dataclass
class Span:
    """One node of a profile tree: a named phase and its accumulated cost.

    ``wall``/``cpu`` are seconds summed over every folded invocation;
    ``count`` is how many invocations folded into this node;
    ``alloc_peak`` is the largest tracemalloc peak (bytes) observed during
    any single invocation, or ``None`` when allocation tracing was off.
    """

    name: str
    wall: float = 0.0
    cpu: float = 0.0
    count: int = 0
    alloc_peak: int | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def child(self, name: str) -> Optional["Span"]:
        """The direct child named ``name``, if any (folding lookup)."""
        for node in self.children:
            if node.name == name:
                return node
        return None

    def self_wall(self) -> float:
        """Wall seconds not attributed to any child span."""
        return max(0.0, self.wall - sum(c.wall for c in self.children))

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready, the cross-process wire format)."""
        out: dict[str, Any] = {
            "name": self.name,
            "wall": self.wall,
            "cpu": self.cpu,
            "count": self.count,
        }
        if self.alloc_peak is not None:
            out["alloc_peak"] = self.alloc_peak
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def merge(self, other: "Span") -> None:
        """Fold ``other`` (same name) into this node, recursively by name."""
        if other.name != self.name:
            raise DimensionError(
                f"cannot merge span {other.name!r} into {self.name!r}"
            )
        self.wall += other.wall
        self.cpu += other.cpu
        self.count += other.count
        if other.alloc_peak is not None:
            self.alloc_peak = max(self.alloc_peak or 0, other.alloc_peak)
        for key, value in other.meta.items():
            self.meta.setdefault(key, value)
        for theirs in other.children:
            mine = self.child(theirs.name)
            if mine is None:
                self.children.append(theirs)
            else:
                mine.merge(theirs)


def span_from_dict(data: dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` tree from :meth:`Span.as_dict` output."""
    if not isinstance(data, dict) or "name" not in data:
        raise DimensionError(f"not a serialized span: {data!r}")
    return Span(
        name=str(data["name"]),
        wall=float(data.get("wall", 0.0)),
        cpu=float(data.get("cpu", 0.0)),
        count=int(data.get("count", 0)),
        alloc_peak=(
            int(data["alloc_peak"]) if data.get("alloc_peak") is not None else None
        ),
        meta=dict(data.get("meta", {})),
        children=[span_from_dict(c) for c in data.get("children", ())],
    )


class _NullSpan:
    """Shared no-op context manager returned when no profiler is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager recording one invocation of a (possibly folded) span."""

    __slots__ = ("_profiler", "_node", "_wall0", "_cpu0", "_alloc_window")

    def __init__(self, profiler: "SpanProfiler", node: Span):
        self._profiler = profiler
        self._node = node

    def __enter__(self) -> Span:
        prof = self._profiler
        prof._stack.append(self._node)
        if prof.trace_alloc:
            # Per-span peak needs its own window; nested spans re-arm it on
            # exit so the parent's window resumes from the current level.
            tracemalloc.reset_peak()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self._node

    def __exit__(self, *exc_info) -> None:
        prof = self._profiler
        node = self._node
        node.wall += time.perf_counter() - self._wall0
        node.cpu += time.process_time() - self._cpu0
        node.count += 1
        if prof.trace_alloc:
            peak = tracemalloc.get_traced_memory()[1]
            node.alloc_peak = max(node.alloc_peak or 0, peak)
            tracemalloc.reset_peak()
        popped = prof._stack.pop()
        assert popped is node, "span stack corrupted (overlapping exits)"


class SpanProfiler:
    """Record a folded tree of named spans (see module docstring).

    Parameters
    ----------
    trace_alloc:
        Also record the tracemalloc *peak* (bytes) per span.  Starts
        tracemalloc if it is not already tracing (and stops it again in
        that case when the profiler is used as a context manager);
        allocation tracing slows Python allocation by an order of
        magnitude, so it is strictly opt-in.

    Not thread-safe: one profiler records one logical call stack.  Give
    concurrent workers their own profiler and :meth:`graft` the serialized
    trees together (the campaign coordinator does exactly this).
    """

    def __init__(self, *, trace_alloc: bool = False):
        self.trace_alloc = bool(trace_alloc)
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._started_tracemalloc = False
        if self.trace_alloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def span(self, name: str, **meta: Any) -> _SpanContext:
        """Open (or fold into) the span ``name`` under the current parent."""
        if not name:
            raise DimensionError("span names must be nonempty")
        siblings = self._stack[-1].children if self._stack else self.roots
        node = None
        for existing in siblings:
            if existing.name == name:
                node = existing
                break
        if node is None:
            node = Span(name=name, meta=dict(meta))
            siblings.append(node)
        else:
            for key, value in meta.items():
                node.meta.setdefault(key, value)
        return _SpanContext(self, node)

    def graft(self, tree: Span | dict[str, Any]) -> Span:
        """Attach a (deserialized) span tree under the current span.

        Used by the campaign coordinator to splice each worker's shard
        profile into the campaign's own tree.  Folds into an existing
        same-named sibling when one exists; returns the attached node.
        """
        node = span_from_dict(tree) if isinstance(tree, dict) else tree
        siblings = self._stack[-1].children if self._stack else self.roots
        for existing in siblings:
            if existing.name == node.name:
                existing.merge(node)
                return existing
        siblings.append(node)
        return node

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------

    def tree(self) -> list[dict[str, Any]]:
        """The recorded roots as plain dicts (JSON/manifest-ready)."""
        return [root.as_dict() for root in self.roots]

    def close(self) -> None:
        """Stop tracemalloc if this profiler was the one that started it."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    def __enter__(self) -> "SpanProfiler":
        self._token = _ACTIVE_PROFILER.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _ACTIVE_PROFILER.reset(self._token)
        self.close()


_ACTIVE_PROFILER: ContextVar[SpanProfiler | None] = ContextVar(
    "repro_obs_profiler", default=None
)


@contextmanager
def use_profiler(profiler: SpanProfiler) -> Iterator[SpanProfiler]:
    """Install ``profiler`` as the ambient profiler for the ``with`` body."""
    token = _ACTIVE_PROFILER.set(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE_PROFILER.reset(token)


def current_profiler() -> SpanProfiler | None:
    """The ambient :class:`SpanProfiler`, or ``None``."""
    return _ACTIVE_PROFILER.get()


def span(name: str, **meta: Any) -> _SpanContext | _NullSpan:
    """Record ``name`` on the ambient profiler; no-op when none installed.

    This is what instrumented library code calls — the driver wraps its
    compile and kernel phases, the campaign runner its merge and
    checkpoint phases.  The unprofiled path returns a shared singleton, so
    the per-call cost without a profiler is a single ContextVar read.
    """
    prof = _ACTIVE_PROFILER.get()
    if prof is None:
        return _NULL_SPAN
    return prof.span(name, **meta)


# ---------------------------------------------------------------------------
# Reporting helpers.
# ---------------------------------------------------------------------------

def aggregate_spans(
    roots: list[Span] | list[dict[str, Any]],
) -> dict[str, dict[str, float]]:
    """Flatten a span tree into per-name totals.

    Returns ``{name: {"wall": s, "cpu": s, "count": n}}`` summed over every
    node with that name anywhere in the tree — the per-phase breakdown the
    e2e tracer records per workload.
    """
    totals: dict[str, dict[str, float]] = {}

    def visit(node: Span) -> None:
        entry = totals.setdefault(
            node.name, {"wall": 0.0, "cpu": 0.0, "count": 0}
        )
        entry["wall"] += node.wall
        entry["cpu"] += node.cpu
        entry["count"] += node.count
        for child in node.children:
            visit(child)

    for root in roots:
        visit(span_from_dict(root) if isinstance(root, dict) else root)
    return totals


def render_spans(
    roots: list[Span] | list[dict[str, Any]], *, indent: int = 2
) -> str:
    """Human-readable profile tree (for ``--profile`` CLI output)."""
    from repro.obs.timing import format_seconds

    lines: list[str] = []

    def visit(node: Span, depth: int) -> None:
        pad = " " * (indent * depth)
        extras = [f"x{node.count}"] if node.count > 1 else []
        if node.cpu:
            extras.append(f"cpu {format_seconds(node.cpu)}")
        if node.alloc_peak is not None:
            extras.append(f"peak {node.alloc_peak / 1024:.0f}KiB")
        suffix = f" ({', '.join(extras)})" if extras else ""
        lines.append(f"{pad}{node.name:<12s} {format_seconds(node.wall)}{suffix}")
        for child in node.children:
            visit(child, depth + 1)

    for root in roots:
        visit(span_from_dict(root) if isinstance(root, dict) else root, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"
