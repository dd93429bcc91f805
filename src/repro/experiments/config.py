"""Shared configuration for experiment runs.

Two scales are provided: ``quick`` (seconds per experiment; used by the
benchmark harness and CI) and ``full`` (minutes; used to produce the
numbers recorded in EXPERIMENTS.md).  All randomness derives from ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.execution import ExecutionOptions
from repro.errors import DimensionError

__all__ = ["ExperimentConfig"]


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment.

    Execution is carried by one frozen
    :class:`~repro.campaign.execution.ExecutionOptions` (``execution``);
    the loose ``backend``/``workers``/``checkpoint_dir``/``resume`` fields
    remain as a legacy mirror — construct with either, and the other side
    is synchronized in ``__post_init__``.  ``backend`` selects the
    execution backend for the experiments' sorts, the Monte-Carlo samplers
    and the direct batched sorts alike (any name from
    :func:`repro.backends.available_backends`); ``None`` leaves the choice
    to the registry default (:func:`repro.schedules.execution_backend`),
    resolved when a sort runs.  The cell-level backends are orders of
    magnitude slower than the array ones; they exist here for end-to-end
    cross-validation runs.
    """

    scale: str = "quick"
    seed: int = 20260706
    backend: str | None = None
    workers: int = 1
    checkpoint_dir: str | None = None
    resume: bool = False
    execution: ExecutionOptions | None = field(default=None)

    def __post_init__(self) -> None:
        if self.scale not in ("quick", "full"):
            raise DimensionError(f"scale must be 'quick' or 'full', got {self.scale!r}")
        if self.execution is None:
            # Legacy construction path: lift the loose knobs into the
            # frozen options object (which owns their validation).
            self.execution = ExecutionOptions(
                backend=self.backend,
                workers=self.workers,
                checkpoint_dir=self.checkpoint_dir,
                resume=self.resume,
            )
        else:
            # Options-first construction: keep the legacy mirror fields
            # consistent for code that still reads them.
            if self.execution.backend is not None:
                self.backend = self.execution.backend
            self.workers = self.execution.workers
            self.checkpoint_dir = (
                None
                if self.execution.checkpoint_dir is None
                else str(self.execution.checkpoint_dir)
            )
            self.resume = self.execution.resume
        if self.backend is not None:
            from repro.backends import get_backend

            # Unknown names raise listing the registry; a backend that
            # cannot run here raises with the reason.
            get_backend(self.backend)

    @property
    def even_sides(self) -> list[int]:
        """Even mesh sides for the sweep experiments."""
        return [8, 12, 16] if self.scale == "quick" else [8, 16, 24, 32]

    @property
    def odd_sides(self) -> list[int]:
        """Odd mesh sides for the appendix experiments."""
        return [7, 9, 13] if self.scale == "quick" else [9, 15, 21, 27]

    @property
    def trials(self) -> int:
        """Trials per cell for step-count averages."""
        return 64 if self.scale == "quick" else 256

    @property
    def moment_trials(self) -> int:
        """Trials per cell for one-step moment estimation (cheap per trial)."""
        return 4000 if self.scale == "quick" else 20000

    @property
    def invariant_trials(self) -> int:
        """Random matrices per lemma-checking cell."""
        return 10 if self.scale == "quick" else 40

    @property
    def linear_sizes(self) -> list[int]:
        """Array lengths for the 1-D experiment."""
        return [16, 64, 256] if self.scale == "quick" else [16, 64, 256, 1024]
