"""Campaign declarations: what to sample, how to shard it, how to name it.

A :class:`CampaignSpec` declares a Monte-Carlo estimation campaign —
``(algorithm, side, input_kind, trials, kind, root seed)`` plus execution
knobs — and deterministically induces its **shard plan**: trials are cut
into shards of ``shard_size`` (:func:`repro.randomness.shard_counts`) and
shard ``i`` draws its inputs from the ``i``-th ``SeedSequence.spawn`` child
of the root seed (:func:`repro.randomness.shard_seed_sequence`).

The plan depends only on the spec, never on worker count or scheduling
order, which is what makes campaign aggregates bit-identical across
``workers ∈ {1, 2, 4, ...}`` and across interrupt-then-resume.

Every spec has a :attr:`~CampaignSpec.fingerprint` — a digest of exactly
the fields that determine the sampled values.  The checkpoint store keys
files by it and refuses to merge shards recorded under a different
fingerprint.  ``backend`` is deliberately **excluded**: the backends are
cross-validated to produce bit-identical samples for the same seed (see
``tests/backends/test_montecarlo_parity.py``), so a checkpoint written on
one backend may be resumed on another.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.runner import resolve_algorithm
from repro.core.schedule import Schedule
from repro.errors import DimensionError
from repro.randomness import seed_provenance, shard_counts, shard_seed_sequence

__all__ = ["KINDS", "INPUT_KINDS", "CampaignSpec", "Shard"]

#: The two sampling modes: sort-to-completion step counts, and a statistic
#: of the grid after a fixed number of steps.
KINDS = ("sort_steps", "statistic")

#: The two input distributions the samplers can draw: uniformly random
#: permutations, and the paper's random 0-1 threshold matrices.
INPUT_KINDS = ("permutation", "zero_one")

_DEFAULT_INPUT_KIND = {"sort_steps": "permutation", "statistic": "zero_one"}


@dataclass(frozen=True)
class Shard:
    """One unit of campaign work: ``trials`` draws from child stream ``index``."""

    index: int
    trials: int


def _statistic_label(statistic: Callable | None) -> str:
    if statistic is None:
        return ""
    mod = getattr(statistic, "__module__", "")
    name = getattr(statistic, "__qualname__", repr(statistic))
    return f"{mod}.{name}" if mod else name


@dataclass(frozen=True)
class CampaignSpec:
    """Declaration of one sharded Monte-Carlo campaign.

    Parameters mirror the :func:`repro.experiments.sample` facade.  The
    ``statistic`` callable (``kind="statistic"`` only) must be picklable —
    a module-level function such as the trackers in :mod:`repro.zeroone` —
    because worker processes receive the spec by pickle.  Lambdas work
    only with in-process execution (``workers=1``) and checkpointing off.
    """

    algorithm: str | Schedule
    side: int
    trials: int
    kind: str = "sort_steps"
    input_kind: str | None = None
    seed: int | tuple[int, ...] = 0
    backend: str | None = None
    statistic: Callable | None = field(default=None, compare=False)
    num_steps: int = 1
    max_steps: int | None = None
    shard_size: int = 64
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DimensionError(
                f"campaign kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.kind == "statistic" and self.statistic is None:
            raise DimensionError("kind='statistic' requires a statistic callable")
        if self.kind == "sort_steps" and self.statistic is not None:
            raise DimensionError("kind='sort_steps' takes no statistic")
        if self.trials < 1:
            raise DimensionError(f"trials must be positive, got {self.trials}")
        if self.shard_size < 1:
            raise DimensionError(f"shard_size must be positive, got {self.shard_size}")
        if self.input_kind is None:
            object.__setattr__(
                self, "input_kind", _DEFAULT_INPUT_KIND[self.kind]
            )
        elif self.input_kind not in INPUT_KINDS:
            raise DimensionError(
                f"input_kind must be one of {INPUT_KINDS}, got {self.input_kind!r}"
            )
        # Fail fast on unknown algorithms/backends in the coordinating
        # process instead of inside every worker.  Resolution goes through
        # the schedule registry (side-aware, so sided families like
        # shearsort work by bare name) and raises UnknownScheduleError
        # listing the registered families for bad names.
        resolve_algorithm(self.algorithm, self.side)
        from repro.backends import backend_name

        # Unknown names raise listing the registry; the spec is pickled to
        # workers and recorded, so an instance is refused too.
        backend_name(self.backend)

    # ------------------------------------------------------------------
    # Shard plan.
    # ------------------------------------------------------------------

    @property
    def algorithm_name(self) -> str:
        """The schedule's resolved instance name (used in fingerprints and
        events).

        Generated families bake their parameters and seed into the name
        (``"random_network[seed=7,side=16,steps=512]"``), so two campaigns
        over different network draws get different fingerprints even though
        every other identity field matches.
        """
        return resolve_algorithm(self.algorithm, self.side).name

    @property
    def resolved_backend(self) -> str:
        """The backend that actually executes this campaign.

        ``backend=None`` selects the default, exactly as each worker
        resolves it; the resolved name is what run metadata reports.
        """
        from repro.backends import backend_name

        return backend_name(self.backend)

    def shards(self) -> list[Shard]:
        """The deterministic shard plan: ``ceil(trials / shard_size)`` shards."""
        return [
            Shard(index=i, trials=count)
            for i, count in enumerate(shard_counts(self.trials, self.shard_size))
        ]

    def shard_seed(self, index: int):
        """The ``SeedSequence`` feeding shard ``index`` (see randomness.py)."""
        return shard_seed_sequence(self.seed, index)

    # ------------------------------------------------------------------
    # Identity.
    # ------------------------------------------------------------------

    def identity(self) -> dict[str, Any]:
        """The value-determining fields, as a JSON-stable mapping.

        Everything that changes the sampled numbers is here; execution
        knobs that provably do not (``backend``, worker count,
        ``batch_size`` — draw order is batch-size invariant, see
        ``test_batching_does_not_change_distribution``) are not.
        """
        return {
            "algorithm": self.algorithm_name,
            "side": self.side,
            "trials": self.trials,
            "kind": self.kind,
            "input_kind": self.input_kind,
            # seed_provenance keeps ints/tuples in their historical JSON
            # form (so existing fingerprints are unchanged) and makes
            # SeedSequence seeds serializable instead of crashing json.dumps.
            "seed": seed_provenance(self.seed),
            "num_steps": self.num_steps if self.kind == "statistic" else None,
            "statistic": _statistic_label(self.statistic),
            "max_steps": self.max_steps,
            "shard_size": self.shard_size,
        }

    @property
    def fingerprint(self) -> str:
        """Digest of :meth:`identity` — the campaign's checkpoint key."""
        canonical = json.dumps(self.identity(), sort_keys=True)
        return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()

    @property
    def values_dtype(self) -> str:
        """Dtype of the merged sample (int64 step counts, float64 statistics)."""
        return "int64" if self.kind == "sort_steps" else "float64"
