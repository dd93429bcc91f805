"""Frozen execution options: *how* to run a campaign, separated from *what*.

A :class:`~repro.campaign.spec.CampaignSpec` declares the sample — the
fields that determine the drawn values, and therefore the store
fingerprint.  :class:`ExecutionOptions` carries everything that must
**not** change the values: backend choice, worker count, checkpointing,
result store.  It is the one place these knobs are declared and
checked: the facade (:func:`repro.experiments.sample`), experiment
configs and the CLI carry one, and :func:`repro.campaign.run_campaign`
checks its keywords by building one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import DimensionError

if TYPE_CHECKING:
    from repro.store import LocalResultStore

__all__ = ["ExecutionOptions"]


@dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a campaign (never *what* it samples).

    Parameters
    ----------
    backend:
        Executor backend registry name (``None`` keeps the default).
        Part of execution, not identity: backends are cross-validated to
        produce bit-identical values, so the store fingerprint ignores it.
        An unknown name raises listing the registry, and anything but a
        name or ``None`` (a backend instance, say) raises too.
    workers:
        Degree of process parallelism; ``1`` runs shards in-process.
    shard_size:
        Trials per campaign shard (``None`` keeps the campaign default).
        Forces campaign mode when set.
    checkpoint_dir:
        Directory for the campaign's JSONL checkpoint; ``None`` disables
        checkpointing.
    resume:
        Restore shards already recorded in the checkpoint.  Requires
        ``checkpoint_dir``.
    store:
        Result store for cache-hit short-circuiting: a
        :class:`~repro.store.LocalResultStore` or a directory path (see
        :func:`repro.store.resolve_store`).
        Forces campaign mode — the fingerprint describes the campaign
        draw plan, not the in-process stream.
    retries:
        Extra attempts per shard after a worker failure.
    max_shards:
        Budgeted partial run: compute at most this many new shards.
        Requires ``checkpoint_dir``.
    """

    backend: str | None = None
    workers: int = 1
    shard_size: int | None = None
    checkpoint_dir: str | Path | None = None
    resume: bool = False
    store: "LocalResultStore | str | Path | None" = None
    retries: int = 2
    max_shards: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise DimensionError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise DimensionError(f"retries must be >= 0, got {self.retries}")
        if self.shard_size is not None and self.shard_size < 1:
            raise DimensionError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        if self.max_shards is not None and self.max_shards < 1:
            raise DimensionError(
                f"max_shards must be >= 1, got {self.max_shards}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise DimensionError("resume=True requires checkpoint_dir")
        if self.max_shards is not None and self.checkpoint_dir is None:
            raise DimensionError(
                "max_shards (partial runs) requires checkpoint_dir"
            )
        if self.backend is not None:
            from repro.backends import backend_name

            backend_name(self.backend)

    @property
    def campaign_mode(self) -> bool:
        """Whether these options force the sharded campaign path.

        Any option that only exists at campaign granularity (parallelism,
        explicit sharding, checkpointing, the result store) switches the
        facade from the historical in-process stream to the campaign
        stream.
        """
        return (
            self.workers != 1
            or self.shard_size is not None
            or self.checkpoint_dir is not None
            or self.store is not None
            or self.max_shards is not None
        )
