"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause without
swallowing unrelated bugs.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DimensionError",
    "UnknownScheduleError",
    "UnsupportedMeshError",
    "ScheduleValidationError",
    "StepLimitExceeded",
    "MissingWireError",
    "CampaignError",
    "CheckpointError",
    "StoreError",
    "AnalysisError",
    "BackendUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class DimensionError(ReproError, ValueError):
    """An input array has the wrong shape, dtype, or contents."""


class UnsupportedMeshError(ReproError, ValueError):
    """An algorithm was asked to run on a mesh side it is not defined for.

    The two row-major algorithms of the paper require an even mesh side
    (``sqrt(N) = 2n``): at odd side the wrap-around comparison would collide
    with the even row-sorting step in the last column.
    """


class UnknownScheduleError(DimensionError, UnsupportedMeshError):
    """A schedule-family lookup failed.

    Raised by :mod:`repro.schedules` when a name does not match any
    registered family (or a family spec string cannot be parsed).  The
    message always lists the registered family names, so CLI surfaces can
    surface valid choices without hardcoding them.  Derives from both
    :class:`DimensionError` (the facade's bad-request contract) and
    :class:`UnsupportedMeshError` (what ``get_algorithm`` historically
    raised for unknown names), so existing ``except`` clauses keep
    working.
    """


class ScheduleValidationError(ReproError, ValueError):
    """A schedule step touches the same cell twice, or is otherwise malformed."""


class StepLimitExceeded(ReproError, RuntimeError):
    """A run hit its step cap before every grid reached the target order.

    Attributes
    ----------
    steps_taken:
        Number of steps executed before giving up.
    unfinished:
        Number of batch elements that had not reached the target order.
    """

    def __init__(
        self, steps_taken: int, unfinished: int, message: str | None = None
    ) -> None:
        self.steps_taken = steps_taken
        self.unfinished = unfinished
        super().__init__(
            message
            or f"step cap of {steps_taken} reached with {unfinished} grid(s) unsorted"
        )


class CampaignError(ReproError, RuntimeError):
    """A Monte-Carlo campaign could not complete.

    Raised by :func:`repro.campaign.run_campaign` when a shard keeps
    failing after its retry budget is exhausted.  Shards completed before
    the failure are preserved in the campaign's checkpoint (when one is
    configured), so a later ``resume=True`` run picks up where this one
    stopped.

    Attributes
    ----------
    failed_shards:
        Indices of the shards that exhausted their retries.
    """

    def __init__(self, failed_shards: list[int], message: str | None = None) -> None:
        self.failed_shards: list[int] = list(failed_shards)
        super().__init__(
            message
            or f"campaign failed on shard(s) {self.failed_shards} after retries"
        )


class CheckpointError(ReproError, RuntimeError):
    """A campaign checkpoint file is unusable for the requested campaign.

    Raised when a checkpoint's header fingerprint does not match the
    campaign spec being resumed (the stored shards were produced by a
    different (algorithm, side, trials, seed, ...) declaration and must
    not be merged), or when the header itself is corrupt.

    Fingerprint mismatches carry the conflict in structured form so a
    caller can report actionable diagnostics instead of parsing the
    message:

    Attributes
    ----------
    path:
        The offending checkpoint file, or ``None`` for errors not tied to
        a file on disk.
    spec_fingerprint / checkpoint_fingerprint:
        The fingerprint of the campaign being resumed vs the one recorded
        in the file header (``None`` unless the error is a mismatch).
    spec_identity / checkpoint_identity:
        The corresponding :meth:`~repro.campaign.spec.CampaignSpec.identity`
        mappings, when available — the field-level diff is what makes a
        conflict actionable.
    """

    def __init__(
        self,
        message: str,
        *,
        path: object = None,
        spec_fingerprint: str | None = None,
        checkpoint_fingerprint: str | None = None,
        spec_identity: dict | None = None,
        checkpoint_identity: dict | None = None,
    ) -> None:
        self.path = path
        self.spec_fingerprint = spec_fingerprint
        self.checkpoint_fingerprint = checkpoint_fingerprint
        self.spec_identity = spec_identity
        self.checkpoint_identity = checkpoint_identity
        super().__init__(message)


class StoreError(ReproError, RuntimeError):
    """A result-store operation failed (unusable root, undecodable entry, ...).

    Raised by :mod:`repro.store` for problems with the store itself — an
    unwritable root directory, an unregistered store scheme, an entry that
    cannot be serialized.  A *corrupted* stored payload is never raised:
    integrity failures are treated as cache misses (the entry is
    quarantined) so a damaged cache degrades to recomputation, not errors.
    """


class AnalysisError(ReproError, ValueError):
    """A static-analysis run was misconfigured (unknown rule, bad path, ...).

    Raised by :mod:`repro.analysis` for problems with the analysis request
    itself — *findings* in the analyzed code are reported in the returned
    reports, never raised.
    """


class MissingWireError(ReproError, RuntimeError):
    """A comparator was scheduled over a link the mesh does not provide.

    Raised by the processor-level mesh machine when a wrap-around comparison
    is executed on a mesh built without wrap-around wires — the paper's
    "extra wires" requirement for the row-major algorithms.
    """


class BackendUnavailableError(ReproError, RuntimeError):
    """The shared C library cannot be built or loaded on this host.

    Raised by :func:`repro._clib.load_library`; the message says why.  The
    ``vectorized`` backend's lane runs and the 0-1 certifier then step in
    NumPy, and the seeded draws shuffle with ``Generator.permuted``, all
    with the same results.
    """
