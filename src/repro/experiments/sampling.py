"""The unified sampling facade: one keyword-only entry point for all draws.

:func:`sample` is the only sampling entry point; it fronts the
:mod:`repro.campaign` engine:

* ``workers=1`` with no sharding knobs runs **in-process**, drawing one
  batched stream from ``seed`` (the loops in
  :mod:`repro.experiments.montecarlo`), so a seed keeps producing
  bit-identical values;
* any of ``workers != 1``, ``shard_size=...``, ``checkpoint_dir=...`` or
  ``store=...`` switches to **campaign mode**: the trial budget is cut into
  ``SeedSequence.spawn``-seeded shards, optionally fanned out over a
  process pool and checkpointed for resume.  Campaign samples are
  deterministic in the spec alone (worker count never changes values),
  but the sharded stream differs from the in-process one — pick a mode
  per experiment and keep it.

Both paths return the same :class:`~repro.campaign.result.SampleResult`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.backends import backend_name
from repro.campaign.execution import ExecutionOptions
from repro.campaign.result import SampleResult
from repro.campaign.runner import run_campaign
from repro.campaign.spec import INPUT_KINDS, KINDS, CampaignSpec
from repro.core.runner import resolve_algorithm
from repro.core.schedule import Schedule
from repro.errors import DimensionError
from repro.experiments.montecarlo import _sort_steps_values, _statistic_values
from repro.obs.events import Observer
from repro.obs.timing import StopWatch
from repro.randomness import seed_provenance

__all__ = ["sample"]


def _validate_request(
    kind: str, statistic: Callable | None, trials: int, input_kind: str | None
) -> None:
    """Fail fast, and identically for both execution modes.

    Historically the in-process path deferred these checks to whatever blew
    up first deep in the samplers (``trials=0`` surfaced as a late
    ``ValueError: cannot summarize an empty sample``; a bogus ``input_kind``
    as a raw ``ValueError`` from the grid generator) while campaign mode
    failed fast with :class:`DimensionError` from ``CampaignSpec``.  The
    facade now owns one error contract: every invalid request raises
    :class:`DimensionError` before any work is done, in either mode.
    """
    if kind not in KINDS:
        raise DimensionError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "statistic" and statistic is None:
        raise DimensionError("kind='statistic' requires a statistic callable")
    if kind == "sort_steps" and statistic is not None:
        raise DimensionError("kind='sort_steps' takes no statistic")
    if trials < 1:
        raise DimensionError(f"trials must be positive, got {trials}")
    if input_kind is not None and input_kind not in INPUT_KINDS:
        raise DimensionError(
            f"input_kind must be one of {INPUT_KINDS}, got {input_kind!r}"
        )


def sample(
    algorithm: str | Schedule,
    *,
    side: int,
    trials: int,
    kind: str = "sort_steps",
    statistic: Callable | None = None,
    num_steps: int = 1,
    seed: Any = 0,
    input_kind: str | None = None,
    max_steps: int | None = None,
    batch_size: int | None = None,
    observer: Observer | None = None,
    backend: str | None = None,
    workers: int = 1,
    shard_size: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    retries: int = 2,
    max_shards: int | None = None,
    store: Any = None,
    execution: ExecutionOptions | None = None,
) -> SampleResult:
    """Draw a Monte-Carlo sample for ``algorithm`` on a ``side``×``side`` grid.

    Parameters
    ----------
    kind:
        ``"sort_steps"`` (default) samples the number of steps to sort a
        random input to completion; ``"statistic"`` applies ``statistic``
        to each grid after ``num_steps`` steps and samples its value.
    statistic:
        Required for (and only allowed with) ``kind="statistic"``.  A
        callable ``grid_batch -> per-grid values``; must be a picklable
        module-level function when campaign mode uses worker processes.
    input_kind:
        ``"permutation"`` or ``"zero_one"``; defaults to ``"permutation"``
        for ``sort_steps`` and ``"zero_one"`` for ``statistic`` (the
        paper's conventions).
    backend:
        Backend-registry name; ``None`` (default) runs ``"vectorized"``,
        which accepts square and linear families alike and steps in C
        where the shared library builds, else in NumPy.
    workers, shard_size, checkpoint_dir, resume, retries, max_shards:
        Campaign-mode knobs — see :func:`repro.campaign.run_campaign`.
        Any of ``workers != 1``, an explicit ``shard_size``, or a
        ``checkpoint_dir`` selects campaign mode (``shard_size`` defaults
        to 64 there).  ``observer`` receives campaign-level events in
        campaign mode and per-run events in-process.
    store:
        Result store for cache-hit short-circuiting: a
        :class:`~repro.store.LocalResultStore` or a directory path.
        Forces campaign mode: the store is keyed by the campaign
        fingerprint, which describes the sharded draw plan, not the
        in-process stream.  A repeat call with the same spec returns the stored values
        bit-identically without running a single kernel step.
    execution:
        A frozen :class:`~repro.campaign.execution.ExecutionOptions`
        bundling ``backend``/``workers``/``shard_size``/
        ``checkpoint_dir``/``resume``/``store``/``retries``/
        ``max_shards``.  Mutually exclusive with passing those knobs
        loose.

    Returns
    -------
    SampleResult
        Per-trial values, :class:`TrialStats`, and provenance ``meta``
        (``meta["mode"]`` is ``"in-process"`` or ``"campaign"``).
    """
    if execution is None:
        execution = ExecutionOptions(
            backend=backend,
            workers=workers,
            shard_size=shard_size,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            store=store,
            retries=retries,
            max_shards=max_shards,
        )
    elif (
        backend is not None
        or workers != 1
        or shard_size is not None
        or checkpoint_dir is not None
        or resume
        or retries != 2
        or max_shards is not None
        or store is not None
    ):
        raise DimensionError(
            "pass execution knobs either inside ExecutionOptions or as "
            "loose keywords, not both"
        )
    _validate_request(kind, statistic, trials, input_kind)
    backend = execution.backend
    if execution.campaign_mode:
        spec = CampaignSpec(
            algorithm=algorithm,
            side=side,
            trials=trials,
            kind=kind,
            input_kind=input_kind,
            seed=seed,
            backend=backend,
            statistic=statistic,
            num_steps=num_steps,
            max_steps=max_steps,
            shard_size=64 if execution.shard_size is None else execution.shard_size,
            batch_size=batch_size,
        )
        return run_campaign(
            spec,
            workers=execution.workers,
            checkpoint_dir=execution.checkpoint_dir,
            resume=execution.resume,
            observer=observer,
            retries=execution.retries,
            max_shards=execution.max_shards,
            store=execution.store,
        )

    # In-process path: one batched stream drawn from ``seed``.
    watch = StopWatch().start()
    if kind == "sort_steps":
        values = _sort_steps_values(
            algorithm,
            side,
            trials,
            seed=seed,
            max_steps=max_steps,
            input_kind="permutation" if input_kind is None else input_kind,
            batch_size=batch_size,
            observer=observer,
            backend=backend,
        )
    else:
        values = _statistic_values(
            algorithm,
            side,
            trials,
            statistic,
            num_steps=num_steps,
            seed=seed,
            input_kind="zero_one" if input_kind is None else input_kind,
            batch_size=batch_size,
            observer=observer,
            backend=backend,
        )
    elapsed = watch.elapsed
    schedule = resolve_algorithm(algorithm, side)
    meta: dict[str, Any] = {
        "mode": "in-process",
        "algorithm": schedule.name,
        "side": side,
        "trials": int(values.size),
        "kind": kind,
        "input_kind": input_kind
        or ("permutation" if kind == "sort_steps" else "zero_one"),
        "seed": seed_provenance(seed),
        "backend": backend_name(backend),
        "workers": 1,
        "elapsed": elapsed,
    }
    return SampleResult.from_values(values, meta)
