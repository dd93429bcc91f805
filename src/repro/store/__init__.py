"""repro.store — content-addressed result store for campaign caching.

A result store maps :attr:`~repro.campaign.spec.CampaignSpec.fingerprint`
to the completed campaign's values + meta, so a repeated ``sample(...,
store=...)`` becomes a lookup instead of a re-run — bit-identical to the
fresh computation, because the fingerprint covers exactly the fields
that determine the merged values (and excludes execution knobs like
backend and worker count, which are cross-validated not to change them).

* :mod:`repro.store.base` — the payload codec (:func:`encode_result` /
  :func:`decode_result`) and integrity hashing;
* :mod:`repro.store.local` — :class:`LocalResultStore`, the directory-tree
  store with atomic writes, corruption quarantine and read-only hits, and
  :func:`resolve_store`, which accepts a store or a directory path.

See docs/STORE.md for the cache key, the layout and the durability
protocol.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "STORE_SCHEMA_VERSION": "repro.store.base",
    "LocalResultStore": "repro.store.local",
    "resolve_store": "repro.store.local",
    "encode_result": "repro.store.base",
    "decode_result": "repro.store.base",
    "payload_integrity": "repro.store.base",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
