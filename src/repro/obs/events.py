"""Event model of the observability subsystem.

Every backend — vectorized, reference, mesh — reports through the
same four lifecycle events, dispatched from a single site: the unified
run-loop driver (:mod:`repro.backends.driver`).  The diagnostics runner
routes through the driver's ``emit_*`` helpers as well, so an
:class:`Observer` sees one schema no matter how a run was executed:

``on_run_start``
    Once per run, before the first step, with the run's static facts
    (executor, algorithm, mesh shape, batch shape, step cap).
``on_step``
    Once per executed schedule step, after the step's comparators have
    fired.  Carries the 1-based step time, a snapshot of the grid (or
    batch) after the step, and the number of swaps the step performed.
``on_cycle``
    Once per completed schedule cycle (every ``len(schedule.steps)`` steps),
    optionally carrying derived per-cycle statistics in ``info``.
``on_run_end``
    Once per run with the outcome: step counts, completion, wall time.

Each event grid is a fresh snapshot that no later step touches, shared by
the step's and cycle's events and every observer, so observers must not
mutate it.  Dispatch is guarded at the run level: a run given no observer,
or one that reads no step (overrides neither ``on_step`` nor ``on_cycle``),
takes the executor's fused loop, which is the package's
zero-overhead-when-disabled guarantee (see docs/OBSERVABILITY.md).

On top of the run-level stream, the sharded campaign layer
(:mod:`repro.campaign`) reports three **campaign-level** events, emitted by
the campaign runner in the coordinating process (never from workers — a
shard executing in a worker process is deliberately unobserved at the run
level, since its events could not reach the parent's observer anyway):

``on_campaign_start``
    Once per campaign, with the shard plan (trials, shards, workers,
    backend) and how many shards were restored from a checkpoint.
``on_shard_end``
    Once per shard as it completes — whether computed fresh, retried after
    a worker failure (``attempts > 1``), or restored from a checkpoint.
``on_campaign_end``
    Once per campaign with the completion tally and wall time.

The result store (:mod:`repro.store`) adds one more event kind on the
same stream:

``on_store_event``
    One content-addressed result-store operation — a cache ``hit`` or
    ``miss`` keyed by campaign fingerprint, a ``put`` of a fresh result,
    or a ``quarantine`` of a corrupted payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "RunStart",
    "StepEvent",
    "CycleEvent",
    "RunEnd",
    "CampaignStart",
    "ShardEnd",
    "CampaignEnd",
    "StoreEvent",
    "Observer",
    "CompositeObserver",
    "RecordingObserver",
]


@dataclass(frozen=True)
class RunStart:
    """Static facts of a run, dispatched before the first step.

    ``executor`` is the backend's registry name (or ``"diagnostics"`` for
    :func:`repro.zeroone.diagnostics.run_diagnostics`); ``rows``/``cols``
    is the mesh shape (``rows == 1`` on a linear array).
    """

    executor: str
    algorithm: str
    rows: int
    cols: int
    batch_shape: tuple[int, ...] = ()
    max_steps: int | None = None
    order: str = ""


@dataclass(frozen=True)
class StepEvent:
    """One executed schedule step.

    ``grid`` is a snapshot of the grid (or batch) after the step, which no
    later step changes (``None`` for producers that do not expose one);
    observers must not mutate it.  ``swaps`` is the number of comparators
    of the step that exchanged their values (``None`` when the producer
    does not count them).
    """

    t: int
    grid: np.ndarray | None = None
    swaps: int | None = None


@dataclass(frozen=True)
class CycleEvent:
    """End of one full schedule cycle (``cycle`` is 1-based)."""

    cycle: int
    t: int
    grid: np.ndarray | None = None
    info: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RunEnd:
    """Outcome of a run.

    ``steps`` mirrors :attr:`repro.backends.SortOutcome.steps` for
    sort-to-completion runs (batch-shaped; -1 where the cap was hit) and is
    the executed step count for fixed-step runs.
    """

    steps: Any = None
    completed: Any = None
    wall_time: float = 0.0


@dataclass(frozen=True)
class CampaignStart:
    """Static facts of a sharded Monte-Carlo campaign, before any shard runs.

    ``campaign`` is the spec fingerprint (also the checkpoint file key);
    ``resumed_shards`` counts shards restored from a checkpoint rather than
    recomputed.
    """

    campaign: str
    algorithm: str
    side: int
    trials: int
    num_shards: int
    shard_size: int
    workers: int
    backend: str
    kind: str = "sort_steps"
    resumed_shards: int = 0


@dataclass(frozen=True)
class ShardEnd:
    """One shard of a campaign finished (fresh, retried, or from checkpoint).

    ``attempts`` is 1 for a first-try success and grows with per-shard
    retries after worker failures; ``from_checkpoint`` marks shards whose
    values were restored rather than recomputed (their ``elapsed`` is 0).

    ``metrics``/``spans`` carry the worker-side observability snapshot
    when the coordinator requested collection (an observer or profiler was
    attached): ``metrics`` is the worker registry's
    :meth:`~repro.obs.metrics.MetricsRegistry.as_dict` form (merged by
    :class:`~repro.obs.metrics.MetricsObserver`), ``spans`` the shard's
    serialized :class:`~repro.obs.prof.Span` tree.  Both are ``None`` for
    unobserved campaigns and for shards restored from checkpoints that
    were written without collection.
    """

    campaign: str
    index: int
    trials: int
    elapsed: float = 0.0
    attempts: int = 1
    from_checkpoint: bool = False
    metrics: dict[str, Any] | None = None
    spans: dict[str, Any] | None = None


@dataclass(frozen=True)
class CampaignEnd:
    """Outcome of a campaign: how much of the shard plan completed.

    ``complete`` is False for budgeted partial runs (``max_shards``) —
    a later ``resume=True`` run finishes the plan.
    """

    campaign: str
    completed_shards: int
    num_shards: int
    trials: int
    elapsed: float = 0.0
    complete: bool = True


#: The result-store operations a :class:`StoreEvent` can report.
STORE_OPS = ("hit", "miss", "put", "quarantine")


@dataclass(frozen=True)
class StoreEvent:
    """One operation against a content-addressed result store.

    ``fingerprint`` is the :attr:`~repro.campaign.spec.CampaignSpec.fingerprint`
    the operation was keyed on; ``store`` names the store instance (the
    local backend reports its root directory).  ``bytes`` carries the
    payload size where the store knows it (puts).
    """

    op: str
    fingerprint: str
    store: str = ""
    bytes: int | None = None


class Observer:
    """Base observer: all hooks are no-ops; subclass and override.

    Executors duck-type against this interface, so any object with the
    ``on_*`` methods works; subclassing spares you the boilerplate, and
    tells the driver which hooks you read: a run steps one at a time only
    for an observer whose class overrides ``on_step`` or ``on_cycle`` (an
    object that does not subclass ``Observer`` always counts as reading
    them).
    """

    def on_run_start(self, event: RunStart) -> None:  # pragma: no cover - no-op
        pass

    def on_step(self, event: StepEvent) -> None:  # pragma: no cover - no-op
        pass

    def on_cycle(self, event: CycleEvent) -> None:  # pragma: no cover - no-op
        pass

    def on_run_end(self, event: RunEnd) -> None:  # pragma: no cover - no-op
        pass

    def on_campaign_start(self, event: CampaignStart) -> None:  # pragma: no cover - no-op
        pass

    def on_shard_end(self, event: ShardEnd) -> None:  # pragma: no cover - no-op
        pass

    def on_campaign_end(self, event: CampaignEnd) -> None:  # pragma: no cover - no-op
        pass

    def on_store_event(self, event: StoreEvent) -> None:  # pragma: no cover - no-op
        pass


class CompositeObserver(Observer):
    """Fan one event stream out to several observers, in order."""

    def __init__(self, observers: list[Observer] | tuple[Observer, ...]):
        self.observers = list(observers)

    def on_run_start(self, event: RunStart) -> None:
        for obs in self.observers:
            obs.on_run_start(event)

    def on_step(self, event: StepEvent) -> None:
        for obs in self.observers:
            obs.on_step(event)

    def on_cycle(self, event: CycleEvent) -> None:
        for obs in self.observers:
            obs.on_cycle(event)

    def on_run_end(self, event: RunEnd) -> None:
        for obs in self.observers:
            obs.on_run_end(event)

    def on_campaign_start(self, event: CampaignStart) -> None:
        for obs in self.observers:
            obs.on_campaign_start(event)

    def on_shard_end(self, event: ShardEnd) -> None:
        for obs in self.observers:
            obs.on_shard_end(event)

    def on_campaign_end(self, event: CampaignEnd) -> None:
        for obs in self.observers:
            obs.on_campaign_end(event)

    def on_store_event(self, event: StoreEvent) -> None:
        for obs in self.observers:
            obs.on_store_event(event)


class RecordingObserver(Observer):
    """Keep every event in memory — the test-suite workhorse."""

    def __init__(self) -> None:
        self.run_starts: list[RunStart] = []
        self.steps: list[StepEvent] = []
        self.cycles: list[CycleEvent] = []
        self.run_ends: list[RunEnd] = []
        self.campaign_starts: list[CampaignStart] = []
        self.shard_ends: list[ShardEnd] = []
        self.campaign_ends: list[CampaignEnd] = []
        self.store_events: list[StoreEvent] = []

    def on_run_start(self, event: RunStart) -> None:
        self.run_starts.append(event)

    def on_step(self, event: StepEvent) -> None:
        self.steps.append(event)

    def on_cycle(self, event: CycleEvent) -> None:
        self.cycles.append(event)

    def on_run_end(self, event: RunEnd) -> None:
        self.run_ends.append(event)

    def on_campaign_start(self, event: CampaignStart) -> None:
        self.campaign_starts.append(event)

    def on_shard_end(self, event: ShardEnd) -> None:
        self.shard_ends.append(event)

    def on_campaign_end(self, event: CampaignEnd) -> None:
        self.campaign_ends.append(event)

    def on_store_event(self, event: StoreEvent) -> None:
        self.store_events.append(event)

    @property
    def step_times(self) -> list[int]:
        return [ev.t for ev in self.steps]
