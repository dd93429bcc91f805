"""repro.obs — structured tracing, metrics, and run manifests.

The observability subsystem shared by every execution backend (the
vectorized lane runs, reference oracle, mesh machine) and the
Monte-Carlo harness; the backends' events all come from the one driver,
:mod:`repro.backends.driver`:

* :mod:`repro.obs.events` — the :class:`Observer` hook protocol and event
  dataclasses (``RunStart``/``StepEvent``/``CycleEvent``/``RunEnd``);
* :mod:`repro.obs.context` — ambient observer installation
  (:func:`use_observer`) so deep call stacks need no plumbing;
* :mod:`repro.obs.metrics` — counters/histograms/timers with JSON
  and Prometheus-text exporters, mergeable across processes;
* :mod:`repro.obs.prof` — hierarchical span profiler (``span("compile")``
  ... ``span("checkpoint")``) with cross-process tree grafting;
* :mod:`repro.obs.trace` — JSONL (optionally gzipped) trace sinks with
  grid digests;
* :mod:`repro.obs.manifest` — replayable run manifests;
* :mod:`repro.obs.timing` — stopwatch and duration-format helpers for the CLI;
* :mod:`repro.obs.progress` — throttled progress printing.

Overhead guarantee: with no observer attached (no argument, no ambient
context), or only observers that read no step, every executor runs its
fused loop — dispatch is guarded per run, not per cell.  See
docs/OBSERVABILITY.md.
"""

from repro.obs.context import (
    get_active_observer,
    no_observer,
    resolve_observer,
    use_observer,
)
from repro.obs.events import (
    CampaignEnd,
    CampaignStart,
    CompositeObserver,
    CycleEvent,
    Observer,
    RecordingObserver,
    RunEnd,
    RunStart,
    ShardEnd,
    StepEvent,
    StoreEvent,
)
from repro.obs.manifest import (
    RunManifest,
    array_digest,
    load_manifest,
    replay_command,
    table_digest,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsObserver,
    MetricsRegistry,
    Timer,
)
from repro.obs.prof import (
    Span,
    SpanProfiler,
    aggregate_spans,
    current_profiler,
    render_spans,
    span,
    span_from_dict,
    use_profiler,
)
from repro.obs.progress import ProgressPrinter
from repro.obs.timing import StopWatch, format_seconds
from repro.obs.trace import (
    JsonlTraceSink,
    grid_digest,
    read_trace,
    validate_trace_events,
)

__all__ = [
    # events
    "Observer",
    "RunStart",
    "StepEvent",
    "CycleEvent",
    "RunEnd",
    "CampaignStart",
    "ShardEnd",
    "CampaignEnd",
    "StoreEvent",
    "CompositeObserver",
    "RecordingObserver",
    # context
    "use_observer",
    "no_observer",
    "get_active_observer",
    "resolve_observer",
    # metrics
    "Counter",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "MetricsObserver",
    # timing
    "StopWatch",
    "format_seconds",
    # prof
    "Span",
    "SpanProfiler",
    "span",
    "use_profiler",
    "current_profiler",
    "span_from_dict",
    "aggregate_spans",
    "render_spans",
    # trace
    "JsonlTraceSink",
    "grid_digest",
    "read_trace",
    "validate_trace_events",
    # manifest
    "RunManifest",
    "write_manifest",
    "load_manifest",
    "replay_command",
    "table_digest",
    "array_digest",
    # progress
    "ProgressPrinter",
]
