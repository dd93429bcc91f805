"""Result-store payload codec and integrity hashing.

A result store is a content-addressed cache of completed campaign
results, keyed by :attr:`repro.campaign.spec.CampaignSpec.fingerprint` —
the blake2b digest of exactly the fields that determine the sampled
values (execution knobs excluded).  Because the fingerprint *is* the
identity of the sample, a lookup needs no validation beyond integrity:
two specs with the same fingerprint are guaranteed bit-identical merged
campaigns, for any worker count, so serving the stored payload is
indistinguishable from re-running the campaign.

This module owns the payload format (:func:`encode_result` /
:func:`decode_result`) and its integrity digest
(:func:`payload_integrity`); :class:`repro.store.local.LocalResultStore`
persists payloads on disk.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import StoreError

if TYPE_CHECKING:
    from repro.campaign.result import SampleResult

__all__ = [
    "STORE_SCHEMA_VERSION",
    "encode_result",
    "decode_result",
    "payload_integrity",
]

STORE_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Payload codec.
# ---------------------------------------------------------------------------


def encode_result(result: "SampleResult") -> dict[str, Any]:
    """The JSON-ready payload a store persists for one completed campaign.

    ``values`` round-trips bit-exactly through JSON: step counts are
    integers, statistic values are IEEE-754 doubles whose ``repr``
    serialization is exact.  ``stats`` is *not* stored — it is a pure
    function of ``values`` and is recomputed on decode, so a stored
    payload can never disagree with its own summary.
    """
    if not result.complete:
        raise StoreError(
            "refusing to store a partial campaign result (complete=False); "
            "resume the campaign to finish its shard plan first"
        )
    meta = {key: value for key, value in result.meta.items() if key != "store"}
    return {
        "values": result.values.tolist(),
        "dtype": str(result.values.dtype),
        "meta": meta,
    }


def decode_result(payload: dict[str, Any]) -> "SampleResult":
    """Rebuild the :class:`~repro.campaign.result.SampleResult` of a payload."""
    from repro.campaign.result import SampleResult

    try:
        values = np.asarray(payload["values"], dtype=payload["dtype"])
        meta = dict(payload["meta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"undecodable result payload: {exc!r}") from exc
    return SampleResult.from_values(values, meta)


def payload_integrity(payload: dict[str, Any]) -> str:
    """Digest guarding a stored payload against corruption.

    Computed over the canonical (sorted-keys) JSON form, so any bit flip
    in values, dtype, or meta changes the digest and turns the entry into
    a quarantined miss on the next read.
    """
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()
