"""Sharded, fault-tolerant, parallel campaign execution.

:func:`run_campaign` turns a :class:`~repro.campaign.spec.CampaignSpec`
into a merged :class:`~repro.campaign.result.SampleResult`:

1. the spec's deterministic shard plan is computed (``SeedSequence.spawn``
   child ``i`` feeds shard ``i`` — see :mod:`repro.randomness`);
2. shards already recorded in the campaign's checkpoint are restored
   (``resume=True``) instead of recomputed;
3. the rest are executed in rounds by one loop, whatever the worker
   count.  A round's shards come from one of two sources: in-process and
   in plan order for ``workers=1``, or a fresh
   ``concurrent.futures.ProcessPoolExecutor`` otherwise.  A shard that
   fails is retried at the end of its round, up to ``retries`` extra
   times (a crashed pool fails every in-flight shard, and the next round
   starts a new pool);
4. completed shards are appended to the checkpoint as they finish and
   reported through the ambient/explicit observer as campaign-level events
   (:class:`~repro.obs.events.ShardEnd` etc.).  Each shard's retries
   show in ``ShardEnd.attempts`` and sum to ``meta["shard_retries"]``;
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
(:func:`_shard_task` with ``collect``).  The coordinator merges every snapshot
into the observing registry (via :class:`~repro.obs.events.ShardEnd`) and
grafts every shard tree into one cross-process span tree per campaign, so
``--metrics-out`` and the Prometheus exporter finally see worker-side
activity — and the campaign manifest records where the time went.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import closing, nullcontext, suppress
from pathlib import Path
from typing import Any

import numpy as np

from repro._clib import load_library
from repro.campaign.checkpoint import CheckpointStore, ShardRecord, checkpoint_path
from repro.campaign.execution import ExecutionOptions
from repro.campaign.result import SampleResult
from repro.campaign.spec import CampaignSpec, Shard
from repro.errors import BackendUnavailableError, CampaignError, StoreError
from repro.obs.context import no_observer, resolve_observer, use_observer
from repro.obs.events import CampaignEnd, CampaignStart, Observer, ShardEnd
from repro.obs.manifest import write_manifest
from repro.obs.metrics import MetricsObserver, MetricsRegistry
from repro.obs.prof import Span, SpanProfiler, current_profiler, use_profiler
from repro.obs.timing import StopWatch
from repro.randomness import as_generator, seed_provenance

__all__ = ["run_campaign"]


def _shard_values(spec: CampaignSpec, index: int, trials: int) -> np.ndarray:
    """The sampling body of one shard."""
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


def _shard_task(
    spec: CampaignSpec, index: int, trials: int, collect: bool
) -> tuple[np.ndarray, dict[str, Any] | None, dict[str, Any] | None, float]:
    """Run one shard: the unit of work, in-process or in a pool worker.

    Deterministic in ``(spec, index)`` alone: the shard re-derives its
    ``SeedSequence`` child locally, so any worker (or a later resume) that
    runs the same shard produces bit-identical values.  With ``collect``
    it also returns the worker-local metrics registry snapshot and span
    tree (rooted at a ``shard`` span) for the coordinator to merge; the
    values never depend on it.  The last item is the shard's own run time,
    measured here, so a pool's queue wait and start-up are not in it.
    Module-level, hence picklable.
    """
    watch = StopWatch().start()
    with no_observer():
        if not collect:
            return _shard_values(spec, index, trials), None, None, watch.elapsed
        registry = MetricsRegistry()
        profiler = SpanProfiler()
        with use_observer(MetricsObserver(registry)), use_profiler(profiler), \
                profiler.span("shard"):
            values = _shard_values(spec, index, trials)
    return values, registry.as_dict(), profiler.tree()[0], watch.elapsed


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
        the same campaign is overwritten.  Requires ``checkpoint_dir``.
    observer:
        Receives campaign-level events; falls back to the ambient observer
        (:func:`repro.obs.use_observer`).  Attaching one (or an ambient
        :class:`~repro.obs.prof.SpanProfiler`) turns on worker-side
        collection: shards report their metrics snapshot and span tree
        through :class:`~repro.obs.events.ShardEnd`, the checkpoint, and
        the result ``meta`` (``worker_metrics`` / ``span_tree``).
    retries:
        Extra attempts per shard after a failure before the campaign gives
        up with :class:`CampaignError`.  A failed shard is retried at the
        end of its round, for every worker count.  A crashed pool (e.g. an
        OOM-killed worker) counts one attempt against every shard that was
        in flight.
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
    # ExecutionOptions owns the checks on these knobs.
    ExecutionOptions(
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        store=store,
        retries=retries,
        max_shards=max_shards,
    )

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
        try:
            while todo:
                failures: dict[int, Exception] = {}
                retry: list[Shard] = []
                with closing(
                    _in_process(spec, todo, collect)
                    if workers == 1
                    else _in_pool(spec, todo, collect, workers)
                ) as source:
                    for shard, outcome in source:
                        if isinstance(outcome, Exception):
                            attempts[shard.index] += 1
                            if attempts[shard.index] > retries:
                                failures[shard.index] = outcome
                            else:
                                total_retries += 1
                                retry.append(shard)
                            continue
                        shard_values, metrics, spans, shard_elapsed = outcome
                        completed[shard.index] = shard_values
                        if metrics is not None:
                            shard_metrics[shard.index] = metrics
                        if ckpt is not None:
                            with pspan("checkpoint"):
                                ckpt.append(
                                    shard.index, shard_values, shard_elapsed,
                                    metrics=metrics, spans=spans,
                                )
                        if profiler is not None and spans is not None:
                            profiler.graft(spans)
                        if obs is not None:
                            obs.on_shard_end(
                                ShardEnd(
                                    campaign=spec.fingerprint,
                                    index=shard.index,
                                    trials=shard.trials,
                                    elapsed=shard_elapsed,
                                    attempts=attempts[shard.index] + 1,
                                    metrics=metrics,
                                    spans=spans,
                                )
                            )
                if failures:
                    failed = sorted(failures)
                    raise CampaignError(
                        failed,
                        "; ".join(
                            f"shard {index} failed after {attempts[index]} "
                            f"attempt(s): {failures[index]!r}"
                            for index in failed
                        ),
                    ) from failures[failed[0]]
                # Re-run the round's failures in plan order.
                todo = sorted(retry, key=lambda shard: shard.index)
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


def _in_process(
    spec: CampaignSpec, shards: list[Shard], collect: bool
) -> Iterator[tuple[Shard, Any]]:
    """One round at ``workers=1``: run ``shards`` here, in plan order.

    Yields ``(shard, outcome)`` as each shard finishes, so the caller
    checkpoints it at once; ``outcome`` is :func:`_shard_task`'s result
    (with the shard's run time) or the exception it raised.
    """
    for shard in shards:
        try:
            outcome = _shard_task(spec, shard.index, shard.trials, collect)
        except Exception as exc:
            outcome = exc
        yield shard, outcome


def _in_pool(
    spec: CampaignSpec, shards: list[Shard], collect: bool, workers: int
) -> Iterator[tuple[Shard, Any]]:
    """One round at ``workers > 1``: run ``shards`` in a fresh process pool.

    Yields like :func:`_in_process`, in completion order.  A broken pool
    (a worker killed hard) fails every in-flight shard at once; the round
    ends, the ``with`` block reaps the dead pool, and the next round
    starts a fresh one.
    """
    # Forked workers inherit the coordinator's modules and its C library:
    # load the sampling body and the library here, once, not in every
    # worker's first shard of every round.  Without the library, every
    # shard steps and draws in NumPy; the workers inherit that outcome too.
    import repro.experiments.montecarlo  # noqa: F401

    with suppress(BackendUnavailableError):
        load_library()

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_shard_task, spec, shard.index, shard.trials, collect): shard
            for shard in shards
        }
        for future in as_completed(futures):
            try:
                outcome = future.result()
            except Exception as exc:
                outcome = exc
            yield futures[future], outcome
