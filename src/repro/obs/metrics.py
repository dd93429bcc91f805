"""Metrics registry: counters, histograms, timers, and exporters.

A :class:`MetricsRegistry` is a named collection of instruments.  The
instruments follow the Prometheus data model closely enough that
:meth:`MetricsRegistry.to_prometheus_text` emits valid exposition-format
text, while :meth:`MetricsRegistry.to_json` keeps the full structured state
(including histogram extrema) for offline analysis.

:class:`MetricsObserver` bridges the event stream into a registry: it
tallies runs, steps and kernel wall-time from ``RunStart``/``RunEnd``
alone, so a run it observes keeps its fused loop.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import DimensionError
from repro.obs.events import (
    CampaignEnd,
    CampaignStart,
    Observer,
    RunEnd,
    RunStart,
    ShardEnd,
    StoreEvent,
)

__all__ = [
    "Counter",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "MetricsObserver",
]

# Default histogram buckets: step/swap-count scales for meshes up to ~64x64.
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)


def _check_name(name: str) -> str:
    if not name or any(ch for ch in name if not (ch.isalnum() or ch in "_:")):
        raise DimensionError(
            f"metric names must be nonempty [A-Za-z0-9_:] strings, got {name!r}"
        )
    return name


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise DimensionError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """Cumulative-bucket histogram with count/sum/min/max."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = _check_name(name)
        self.help = help
        if not buckets or list(buckets) != sorted(buckets):
            raise DimensionError(f"histogram {name} needs sorted, nonempty buckets")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)  # non-cumulative, per bucket
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.buckets, value)
        if idx < len(self.buckets):
            self.bucket_counts[idx] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_counts(self) -> list[int]:
        """Prometheus-style cumulative counts per upper bound (excl. +Inf)."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(b): c for b, c in zip(self.buckets, self.cumulative_counts())},
        }


class Timer:
    """Wall-time instrument: a histogram of seconds plus a running total.

    Usable as a context manager::

        with registry.timer("phase_seconds").time():
            run_phase()
    """

    kind = "timer"

    # Sub-second to minutes-scale latency buckets.
    TIME_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0)

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.histogram = Histogram(name, help, buckets=self.TIME_BUCKETS)

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise DimensionError(f"timer {self.name} got negative duration {seconds}")
        self.histogram.observe(seconds)

    def time(self) -> "_TimerContext":
        return _TimerContext(self)

    @property
    def total(self) -> float:
        return self.histogram.sum

    @property
    def count(self) -> int:
        return self.histogram.count

    def as_dict(self) -> dict[str, Any]:
        d = self.histogram.as_dict()
        d["kind"] = self.kind
        return d


class _TimerContext:
    def __init__(self, timer: Timer):
        self.timer = timer
        self.elapsed = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
        self.timer.observe(self.elapsed)


class MetricsRegistry:
    """A named collection of instruments with idempotent registration."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Histogram | Timer] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise DimensionError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def timer(self, name: str, help: str = "") -> Timer:
        return self._get_or_create(Timer, name, help)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Counter | Histogram | Timer:
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def as_dict(self) -> dict[str, Any]:
        return {name: self._metrics[name].as_dict() for name in self.names()}

    def merge(self, other: "MetricsRegistry | dict[str, Any]") -> None:
        """Fold another registry (or an :meth:`as_dict` snapshot) into this one.

        This is the cross-process aggregation primitive: campaign shard
        workers snapshot their registry with :meth:`as_dict`, ship it over
        the result/checkpoint channel, and the coordinator merges every
        snapshot here so exporters finally see worker-side activity.

        Merge semantics per instrument kind:

        * **counter** — values add;
        * **histogram / timer** — per-bucket counts, total count, and sum
          add; min/max combine; bucket layouts must match exactly
          (:class:`DimensionError` otherwise).

        Instruments we have not registered yet are created from the
        snapshot (same kind, help text, and bucket layout).
        """
        snapshot = other.as_dict() if isinstance(other, MetricsRegistry) else other
        for name in sorted(snapshot):
            data = snapshot[name]
            kind = data.get("kind")
            help_text = data.get("help", "")
            if kind == "counter":
                self.counter(name, help_text).inc(float(data["value"]))
            elif kind in ("histogram", "timer"):
                incoming_buckets = tuple(
                    float(b) for b in sorted(data["buckets"], key=float)
                )
                if kind == "timer":
                    mine = self.timer(name, help_text).histogram
                else:
                    mine = self.histogram(name, help_text, buckets=incoming_buckets)
                _merge_histogram_snapshot(name, mine, data, incoming_buckets)
            else:
                raise DimensionError(
                    f"cannot merge metric {name!r} of unknown kind {kind!r}"
                )

    def to_json(self, path: str | Path | None = None, *, indent: int = 2) -> str:
        """Serialize the registry; also write it to ``path`` when given."""
        text = json.dumps(self.as_dict(), indent=indent, sort_keys=True)
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text + "\n")
        return text

    def to_prometheus_text(self) -> str:
        """Prometheus exposition format (text version 0.0.4)."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} {metric.kind}")
                lines.append(f"{name} {_fmt_value(metric.value)}")
            else:
                hist = metric.histogram if isinstance(metric, Timer) else metric
                lines.append(f"# TYPE {name} histogram")
                for bound, cum in zip(hist.buckets, hist.cumulative_counts()):
                    lines.append(f'{name}_bucket{{le="{_fmt_value(bound)}"}} {cum}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
                lines.append(f"{name}_sum {_fmt_value(hist.sum)}")
                lines.append(f"{name}_count {hist.count}")
        return "\n".join(lines) + "\n"


def _fmt_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _merge_histogram_snapshot(
    name: str,
    mine: Histogram,
    data: dict[str, Any],
    incoming_buckets: tuple[float, ...],
) -> None:
    """Fold one serialized histogram into ``mine`` (shared by timer merge).

    ``as_dict`` publishes *cumulative* per-bound counts and no explicit
    overflow, so both are reconstructed here: de-cumulate adjacent bounds,
    and recover overflow as ``count - last_cumulative``.
    """
    if mine.buckets != incoming_buckets:
        raise DimensionError(
            f"cannot merge metric {name!r}: bucket layout "
            f"{incoming_buckets} does not match {mine.buckets}"
        )
    cumulative = [int(data["buckets"][key]) for key in sorted(data["buckets"], key=float)]
    previous = 0
    for idx, value in enumerate(cumulative):
        mine.bucket_counts[idx] += value - previous
        previous = value
    count = int(data["count"])
    mine.overflow += count - previous
    mine.count += count
    mine.sum += float(data["sum"])
    if data.get("min") is not None:
        mine.min = (
            float(data["min"]) if mine.min is None else min(mine.min, float(data["min"]))
        )
    if data.get("max") is not None:
        mine.max = (
            float(data["max"]) if mine.max is None else max(mine.max, float(data["max"]))
        )


class MetricsObserver(Observer):
    """Tally run/step/wall-time metrics from the event stream.

    Metric names (all prefixed ``repro_``): ``repro_runs_total``,
    ``repro_steps_total``, ``repro_run_steps`` (histogram),
    ``repro_run_seconds`` (timer).  All come from ``RunStart`` and
    ``RunEnd``: the observer reads no step, so the runs it observes keep
    their fused loop.  ``repro_steps_total`` adds the steps each run
    executed: the largest step count of a sorted batch, the cap when a
    grid hit it, the step count of a fixed-step run.

    Campaign-level events add ``repro_campaigns_total``,
    ``repro_campaign_shards_total`` / ``repro_campaign_shard_retries_total``
    / ``repro_campaign_shards_resumed_total``,
    ``repro_campaign_trials_total``, and the ``repro_shard_seconds`` timer
    (checkpoint-restored shards are counted but not timed).  A
    :class:`~repro.obs.events.ShardEnd` carrying a worker-side registry
    snapshot is folded in via :meth:`MetricsRegistry.merge`, so run/step
    counters cover shard activity executed in worker processes too.

    Result-store events (:class:`~repro.obs.events.StoreEvent`) add
    ``repro_service_store_{hits,misses,puts,quarantined}_total``.  A
    repeated campaign served from the store shows up
    as a ``repro_service_store_hits_total`` increment with **zero** new
    ``repro_runs_total`` / ``repro_steps_total`` activity — that pairing is
    how the cache-hit acceptance test proves no kernel work happened.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._runs = reg.counter("repro_runs_total", "executor runs observed")
        self._steps = reg.counter("repro_steps_total", "schedule steps executed")
        # The cap of the run in flight, for a run that hits it.
        self._max_steps: int | None = None
        self._run_steps = reg.histogram(
            "repro_run_steps", "steps per completed run"
        )
        self._run_seconds = reg.timer(
            "repro_run_seconds", "kernel wall-time per run"
        )
        self._campaigns = reg.counter(
            "repro_campaigns_total", "Monte-Carlo campaigns observed"
        )
        self._shards = reg.counter(
            "repro_campaign_shards_total", "campaign shards completed"
        )
        self._shard_retries = reg.counter(
            "repro_campaign_shard_retries_total",
            "extra shard attempts after worker failures",
        )
        self._shards_resumed = reg.counter(
            "repro_campaign_shards_resumed_total",
            "campaign shards restored from checkpoints",
        )
        self._campaign_trials = reg.counter(
            "repro_campaign_trials_total", "trials aggregated by campaigns"
        )
        self._shard_seconds = reg.timer(
            "repro_shard_seconds", "wall-time per computed campaign shard"
        )
        self._store_ops = {
            "hit": reg.counter(
                "repro_service_store_hits_total",
                "result-store lookups answered from the cache",
            ),
            "miss": reg.counter(
                "repro_service_store_misses_total",
                "result-store lookups that fell through to execution",
            ),
            "put": reg.counter(
                "repro_service_store_puts_total", "results written to the store"
            ),
            "quarantine": reg.counter(
                "repro_service_store_quarantined_total",
                "corrupted payloads quarantined and treated as misses",
            ),
        }

    def on_run_start(self, event: RunStart) -> None:
        self._runs.inc()
        self._max_steps = event.max_steps

    def on_run_end(self, event: RunEnd) -> None:
        self._run_seconds.observe(max(0.0, event.wall_time))
        if event.steps is None:
            return
        # Scalars, 0-d arrays and batch arrays alike; -1 marks a capped grid.
        steps = np.asarray(event.steps, dtype=np.int64).reshape(-1)
        if steps.size:
            self._steps.inc(int(steps.max()) if steps.min() >= 0 else self._max_steps or 0)
        for v in steps[steps >= 0].tolist():
            self._run_steps.observe(v)

    def on_campaign_start(self, event: CampaignStart) -> None:
        self._campaigns.inc()

    def on_shard_end(self, event: ShardEnd) -> None:
        self._shards.inc()
        if event.attempts > 1:
            self._shard_retries.inc(event.attempts - 1)
        if event.from_checkpoint:
            self._shards_resumed.inc()
        else:
            self._shard_seconds.observe(max(0.0, event.elapsed))
        if event.metrics is not None:
            # Worker-side registry snapshot: fold it in so run/step
            # counters cover shard activity, not just the coordinator's.
            self.registry.merge(event.metrics)

    def on_campaign_end(self, event: CampaignEnd) -> None:
        self._campaign_trials.inc(event.trials)

    def on_store_event(self, event: StoreEvent) -> None:
        counter = self._store_ops.get(event.op)
        if counter is not None:
            counter.inc()

