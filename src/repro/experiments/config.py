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

    ``scale`` and ``seed`` fix what the experiments compute; ``execution``
    (a frozen :class:`~repro.campaign.execution.ExecutionOptions`, which
    declares and checks every execution knob) fixes how.  Its ``backend``
    selects the executor for the experiments' sorts, the Monte-Carlo
    samplers and the direct batched sorts alike (any name from
    :func:`repro.backends.available_backends`); ``None`` runs the default,
    ``vectorized``.  The cell-level backends are orders of
    magnitude slower than the array ones; they exist here for end-to-end
    cross-validation runs.
    """

    scale: str = "quick"
    seed: int = 20260706
    execution: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self) -> None:
        if self.scale not in ("quick", "full"):
            raise DimensionError(f"scale must be 'quick' or 'full', got {self.scale!r}")

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
