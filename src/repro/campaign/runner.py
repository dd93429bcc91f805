"""Sharded, fault-tolerant, parallel campaign execution.

:func:`run_campaign` turns a :class:`~repro.campaign.spec.CampaignSpec`
into a merged :class:`~repro.campaign.result.SampleResult`:

1. the spec's deterministic shard plan is computed (``SeedSequence.spawn``
   child ``i`` feeds shard ``i`` — see :mod:`repro.randomness`);
2. shards already recorded in the campaign's checkpoint are restored
   (``resume=True``) instead of recomputed;
3. the rest are executed — in-process and in plan order for ``workers=1``,
   fanned out over a ``concurrent.futures.ProcessPoolExecutor`` otherwise —
   with each shard retried up to ``retries`` extra times on worker failure
   (a crashed pool is rebuilt and the unfinished shards resubmitted);
4. completed shards are appended to the checkpoint as they finish and
   reported through the ambient/explicit observer as campaign-level events
   (:class:`~repro.obs.events.ShardEnd` etc.);
5. shard samples are merged **in shard-index order**, which is what makes
   the aggregate bit-identical across worker counts, completion orders,
   and interrupt-then-resume cycles.

Shard execution is unobserved at the run level from the *coordinator's*
point of view (see :func:`repro.obs.context.no_observer`): per-step events
cannot usefully cross process boundaries.  Instead, when the coordinator
has an observer or ambient profiler attached, each shard runs under a
**worker-local** :class:`~repro.obs.metrics.MetricsObserver` and
:class:`~repro.obs.prof.SpanProfiler` and ships the resulting registry
snapshot and span tree back through the result/checkpoint channel
(:func:`execute_shard_observed`).  The coordinator merges every snapshot
into the observing registry (via :class:`~repro.obs.events.ShardEnd`) and
grafts every shard tree into one cross-process span tree per campaign, so
``--metrics-out`` and the Prometheus exporter finally see worker-side
activity — and the campaign manifest records where the time went.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import numpy as np

from repro.campaign.checkpoint import CheckpointStore, ShardRecord, checkpoint_path
from repro.campaign.result import SampleResult
from repro.campaign.spec import CampaignSpec, Shard
from repro.errors import CampaignError, DimensionError, StoreError
from repro.obs.context import no_observer, resolve_observer, use_observer
from repro.obs.events import CampaignEnd, CampaignStart, Observer, ShardEnd
from repro.obs.manifest import write_manifest
from repro.obs.metrics import MetricsObserver, MetricsRegistry
from repro.obs.prof import Span, SpanProfiler, current_profiler, use_profiler
from repro.obs.timing import StopWatch
from repro.randomness import as_generator, seed_provenance

__all__ = ["run_campaign", "execute_shard", "execute_shard_observed"]


def _shard_values(spec: CampaignSpec, index: int, trials: int) -> np.ndarray:
    """The sampling body shared by both shard entry points."""
    # Imported here, not at module top: repro.experiments imports this
    # package (for the sample() facade), so a top-level import is circular.
    from repro.experiments.montecarlo import _sort_steps_values, _statistic_values

    rng = as_generator(spec.shard_seed(index))
    if spec.kind == "sort_steps":
        return _sort_steps_values(
            spec.algorithm,
            spec.side,
            trials,
            seed=rng,
            max_steps=spec.max_steps,
            input_kind=spec.input_kind,
            batch_size=spec.batch_size,
            backend=spec.backend,
        )
    return _statistic_values(
        spec.algorithm,
        spec.side,
        trials,
        spec.statistic,
        num_steps=spec.num_steps,
        seed=rng,
        input_kind=spec.input_kind,
        batch_size=spec.batch_size,
        backend=spec.backend,
    ).astype(np.float64)


def execute_shard(spec: CampaignSpec, index: int, trials: int) -> np.ndarray:
    """Sample one shard's values — the unit of work a worker performs.

    Deterministic in ``(spec, index)`` alone: the shard re-derives its
    ``SeedSequence`` child locally, so any worker (or a later resume) that
    runs the same shard produces bit-identical values.
    """
    with no_observer():
        return _shard_values(spec, index, trials)


def execute_shard_observed(
    spec: CampaignSpec, index: int, trials: int
) -> tuple[np.ndarray, dict[str, Any], dict[str, Any]]:
    """Run one shard under worker-local observability collection.

    Identical values to :func:`execute_shard` (the sampling stream never
    depends on observation), plus the worker's metrics registry snapshot
    and its serialized span tree — rooted at a ``shard`` span — for the
    coordinator to merge.
    """
    registry = MetricsRegistry()
    profiler = SpanProfiler()
    with no_observer(), use_observer(MetricsObserver(registry)), \
            use_profiler(profiler):
        with profiler.span("shard"):
            values = _shard_values(spec, index, trials)
    return values, registry.as_dict(), profiler.tree()[0]


def _merge(spec: CampaignSpec, completed: dict[int, np.ndarray]) -> np.ndarray:
    """Concatenate shard samples in shard-index order (the determinism rule)."""
    dtype = np.dtype(spec.values_dtype)
    return np.concatenate(
        [np.asarray(completed[i], dtype=dtype) for i in sorted(completed)]
    )


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    observer: Observer | None = None,
    retries: int = 2,
    max_shards: int | None = None,
    store: Any = None,
) -> SampleResult:
    """Run (or resume) a campaign and return the merged sample.

    Parameters
    ----------
    workers:
        Degree of process parallelism.  ``1`` runs shards in-process, in
        plan order; any value produces the identical aggregate.
    checkpoint_dir:
        Directory for the campaign's JSONL checkpoint (and, on completion,
        its manifest).  ``None`` disables checkpointing.
    resume:
        Restore shards already recorded in the checkpoint instead of
        recomputing them.  Without ``resume`` an existing checkpoint for
        the same campaign is overwritten.
    observer:
        Receives campaign-level events; falls back to the ambient observer
        (:func:`repro.obs.use_observer`).  Attaching one (or an ambient
        :class:`~repro.obs.prof.SpanProfiler`) turns on worker-side
        collection: shards report their metrics snapshot and span tree
        through :class:`~repro.obs.events.ShardEnd`, the checkpoint, and
        the result ``meta`` (``worker_metrics`` / ``span_tree``).
    retries:
        Extra attempts per shard after a worker failure before the
        campaign gives up with :class:`CampaignError`.  A crashed pool
        (e.g. an OOM-killed worker) counts one attempt against every shard
        that was in flight.
    max_shards:
        Budgeted partial run: compute at most this many new shards, then
        checkpoint and return a partial (``complete=False``) result.
        Requires ``checkpoint_dir`` — a partial run you cannot resume
        would be wasted work.
    store:
        Result store for cache-hit short-circuiting: a
        :class:`~repro.store.LocalResultStore` or a directory path.  A
        stored entry for ``spec.fingerprint`` is returned without running
        a single shard — bit-identical to the fresh campaign, because the
        fingerprint covers exactly the value-determining fields.  On a
        miss, the completed campaign is written back (partial results are
        never stored).  ``result.meta["store"]`` records the outcome.
    """
    if workers < 1:
        raise DimensionError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise DimensionError(f"retries must be >= 0, got {retries}")
    if max_shards is not None and max_shards < 1:
        raise DimensionError(f"max_shards must be >= 1, got {max_shards}")
    if max_shards is not None and checkpoint_dir is None:
        raise DimensionError("max_shards (partial runs) requires checkpoint_dir")

    plan = spec.shards()
    obs = resolve_observer(observer)
    # The campaign's profiler: the ambient one when installed, else a
    # campaign-local one so an observed run still records a span tree for
    # its manifest.  None (no observer, no profiler) keeps the historical
    # zero-collection fast path: workers run fully unobserved.
    profiler = current_profiler()
    if profiler is None and obs is not None:
        profiler = SpanProfiler()
    collect = profiler is not None or obs is not None

    def pspan(name: str):
        return profiler.span(name) if profiler is not None else nullcontext()

    def ambient_obs():
        # The store reports StoreEvents through the *ambient* observer
        # (it takes no observer argument), so an explicitly-passed one is
        # installed around store calls to keep the event stream complete.
        return use_observer(obs) if obs is not None else nullcontext()

    result_store = None
    if store is not None:
        from repro.store import decode_result, resolve_store

        result_store = resolve_store(store)
        with ambient_obs(), pspan("store_lookup"):
            payload = result_store.get(spec.fingerprint)
        if payload is not None:
            try:
                cached = decode_result(payload)
            except StoreError:
                # Undecodable despite passing integrity (e.g. a foreign
                # writer): treat as a miss and recompute.
                cached = None
            if cached is not None:
                cached.meta["store"] = {
                    "hit": True,
                    "store": result_store.describe(),
                    "fingerprint": spec.fingerprint,
                }
                return cached

    watch = StopWatch().start()

    ckpt: CheckpointStore | None = None
    records: dict[int, ShardRecord] = {}
    if checkpoint_dir is not None:
        ckpt = CheckpointStore(checkpoint_path(checkpoint_dir, spec), spec)
        with pspan("checkpoint"):
            if resume:
                records = ckpt.load_records()
            ckpt.open(fresh=not resume)
    resumed = len(records)
    completed: dict[int, np.ndarray] = {
        index: record.values for index, record in records.items()
    }
    # Worker-side registry snapshots by shard index (restored or fresh),
    # merged into meta["worker_metrics"] at the end when collecting.
    shard_metrics: dict[int, dict[str, Any]] = {
        index: record.metrics
        for index, record in records.items()
        if record.metrics is not None
    }

    campaign_cm = (
        profiler.span("campaign", fingerprint=spec.fingerprint)
        if profiler is not None
        else nullcontext()
    )
    with campaign_cm as campaign_span:
        if obs is not None:
            obs.on_campaign_start(
                CampaignStart(
                    campaign=spec.fingerprint,
                    algorithm=spec.algorithm_name,
                    side=spec.side,
                    trials=spec.trials,
                    num_shards=len(plan),
                    shard_size=spec.shard_size,
                    workers=workers,
                    backend=spec.backend,
                    kind=spec.kind,
                    resumed_shards=resumed,
                )
            )
        for index in sorted(records):
            record = records[index]
            if profiler is not None and record.spans is not None:
                profiler.graft(record.spans)
            if obs is not None:
                obs.on_shard_end(
                    ShardEnd(
                        campaign=spec.fingerprint,
                        index=index,
                        trials=int(record.values.size),
                        from_checkpoint=True,
                        metrics=record.metrics,
                        spans=record.spans,
                    )
                )

        todo = [shard for shard in plan if shard.index not in completed]
        if max_shards is not None:
            todo = todo[:max_shards]
        attempts: dict[int, int] = {shard.index: 0 for shard in todo}
        total_retries = 0

        def finish_shard(
            shard: Shard,
            values: np.ndarray,
            elapsed: float,
            metrics: dict[str, Any] | None = None,
            spans: dict[str, Any] | None = None,
        ) -> None:
            completed[shard.index] = values
            if metrics is not None:
                shard_metrics[shard.index] = metrics
            if ckpt is not None:
                with pspan("checkpoint"):
                    ckpt.append(
                        shard.index, values, elapsed, metrics=metrics, spans=spans
                    )
            if profiler is not None and spans is not None:
                profiler.graft(spans)
            if obs is not None:
                obs.on_shard_end(
                    ShardEnd(
                        campaign=spec.fingerprint,
                        index=shard.index,
                        trials=shard.trials,
                        elapsed=elapsed,
                        attempts=attempts[shard.index] + 1,
                        metrics=metrics,
                        spans=spans,
                    )
                )

        try:
            if workers == 1:
                _run_serial(spec, todo, attempts, retries, finish_shard, collect)
            else:
                total_retries = _run_pool(
                    spec, todo, attempts, retries, workers, finish_shard, collect
                )
        finally:
            if ckpt is not None:
                ckpt.close()

        elapsed = watch.elapsed
        complete = len(completed) == len(plan)
        with pspan("merge"):
            values = _merge(spec, completed)
        if obs is not None:
            obs.on_campaign_end(
                CampaignEnd(
                    campaign=spec.fingerprint,
                    completed_shards=len(completed),
                    num_shards=len(plan),
                    trials=int(values.size),
                    elapsed=elapsed,
                    complete=complete,
                )
            )

    meta: dict[str, Any] = {
        "mode": "campaign",
        "campaign": spec.fingerprint,
        "algorithm": spec.algorithm_name,
        "side": spec.side,
        "trials": int(values.size),
        "planned_trials": spec.trials,
        "kind": spec.kind,
        "input_kind": spec.input_kind,
        "seed": seed_provenance(spec.seed),
        "backend": spec.resolved_backend,
        "workers": workers,
        "num_shards": len(plan),
        "shard_size": spec.shard_size,
        "completed_shards": len(completed),
        "resumed_shards": resumed,
        "shard_retries": total_retries,
        "elapsed": elapsed,
        "checkpoint": str(ckpt.path) if ckpt is not None else None,
    }
    if collect:
        meta["worker_metrics"] = _merged_worker_metrics(shard_metrics, completed)
        if isinstance(campaign_span, Span):
            meta["span_tree"] = campaign_span.as_dict()
    result = SampleResult.from_values(values, meta, complete=complete)
    if result_store is not None:
        from repro.store import encode_result

        stored = False
        if complete:
            # Encode before annotating meta so the stored payload never
            # carries the (run-local) "store" outcome key.
            payload = encode_result(result)
            with ambient_obs(), pspan("store_put"):
                result_store.put(
                    spec.fingerprint,
                    payload,
                    manifest=result.to_manifest().as_dict(),
                )
            stored = True
        result.meta["store"] = {
            "hit": False,
            "stored": stored,
            "store": result_store.describe(),
            "fingerprint": spec.fingerprint,
        }
    if ckpt is not None:
        manifest = result.to_manifest()
        write_manifest(ckpt.path.with_suffix(".manifest.json"), manifest)
    return result


def _merged_worker_metrics(
    shard_metrics: dict[int, dict[str, Any]],
    completed: dict[int, np.ndarray],
) -> dict[str, Any] | None:
    """One registry snapshot covering every completed shard that reported
    metrics (merged in shard-index order, like the values)."""
    merged = MetricsRegistry()
    for index in sorted(shard_metrics):
        if index in completed:
            merged.merge(shard_metrics[index])
    return merged.as_dict() if merged.names() else None


def _run_serial(spec, todo, attempts, retries, finish_shard, collect) -> None:
    """Plan-order in-process execution (workers=1)."""
    for shard in todo:
        while True:
            shard_watch = StopWatch().start()
            try:
                if collect:
                    values, metrics, spans = execute_shard_observed(
                        spec, shard.index, shard.trials
                    )
                else:
                    values = execute_shard(spec, shard.index, shard.trials)
                    metrics = spans = None
            except Exception as exc:
                attempts[shard.index] += 1
                if attempts[shard.index] > retries:
                    raise CampaignError(
                        [shard.index],
                        f"shard {shard.index} failed after "
                        f"{attempts[shard.index]} attempt(s): {exc!r}",
                    ) from exc
                continue
            finish_shard(shard, values, shard_watch.elapsed, metrics, spans)
            break


def _run_pool(spec, todo, attempts, retries, workers, finish_shard, collect) -> int:
    """Process-pool execution with per-shard retry and pool rebuild.

    Shards are submitted in rounds: round 1 is the whole todo list; each
    later round resubmits only the shards whose previous attempt failed.
    A broken pool (worker killed hard) fails every in-flight shard at
    once, so the round ends, the ``with`` block reaps the dead pool, and
    the next round starts a fresh one.
    """
    total_retries = 0
    remaining = list(todo)
    while remaining:
        failed_for_good: list[int] = []
        next_round: list[Shard] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            future_to_shard = {
                pool.submit(
                    _shard_task, spec, shard.index, shard.trials, collect
                ): (shard, StopWatch().start())
                for shard in remaining
            }
            for future in as_completed(future_to_shard):
                shard, shard_watch = future_to_shard[future]
                try:
                    values, metrics, spans = future.result()
                except Exception:
                    # Worker raised, died, or the whole pool broke
                    # (BrokenProcessPool fails every in-flight future).
                    attempts[shard.index] += 1
                    total_retries += 1
                    if attempts[shard.index] > retries:
                        failed_for_good.append(shard.index)
                    else:
                        next_round.append(shard)
                    continue
                finish_shard(shard, values, shard_watch.elapsed, metrics, spans)
        if failed_for_good:
            raise CampaignError(sorted(failed_for_good))
        # Re-run failures in plan order, in a fresh pool.
        remaining = sorted(next_round, key=lambda shard: shard.index)
    return total_retries


def _shard_task(
    spec: CampaignSpec, index: int, trials: int, collect: bool
) -> tuple[np.ndarray, dict[str, Any] | None, dict[str, Any] | None]:
    """Module-level (hence picklable) worker entry point."""
    if collect:
        return execute_shard_observed(spec, index, trials)
    return execute_shard(spec, index, trials), None, None
