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

from repro._lazy import lazy_exports

_EXPORTS = {
    "Observer": "repro.obs.events",
    "RunStart": "repro.obs.events",
    "StepEvent": "repro.obs.events",
    "CycleEvent": "repro.obs.events",
    "RunEnd": "repro.obs.events",
    "CampaignStart": "repro.obs.events",
    "ShardEnd": "repro.obs.events",
    "CampaignEnd": "repro.obs.events",
    "StoreEvent": "repro.obs.events",
    "CompositeObserver": "repro.obs.events",
    "RecordingObserver": "repro.obs.events",
    "use_observer": "repro.obs.context",
    "no_observer": "repro.obs.context",
    "get_active_observer": "repro.obs.context",
    "resolve_observer": "repro.obs.context",
    "Counter": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "Timer": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "MetricsObserver": "repro.obs.metrics",
    "StopWatch": "repro.obs.timing",
    "format_seconds": "repro.obs.timing",
    "Span": "repro.obs.prof",
    "SpanProfiler": "repro.obs.prof",
    "span": "repro.obs.prof",
    "use_profiler": "repro.obs.prof",
    "current_profiler": "repro.obs.prof",
    "span_from_dict": "repro.obs.prof",
    "aggregate_spans": "repro.obs.prof",
    "render_spans": "repro.obs.prof",
    "JsonlTraceSink": "repro.obs.trace",
    "grid_digest": "repro.obs.trace",
    "read_trace": "repro.obs.trace",
    "validate_trace_events": "repro.obs.trace",
    "RunManifest": "repro.obs.manifest",
    "write_manifest": "repro.obs.manifest",
    "load_manifest": "repro.obs.manifest",
    "replay_command": "repro.obs.manifest",
    "table_digest": "repro.obs.manifest",
    "array_digest": "repro.obs.manifest",
    "ProgressPrinter": "repro.obs.progress",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
