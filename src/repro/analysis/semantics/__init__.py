"""Static sortedness certification — the 0-1-principle model checker.

Where :mod:`repro.analysis.schedule_check` certifies comparator-network
*form* (SCH001–SCH009), this package certifies *function*: does the
schedule actually sort?  :func:`certify_sortedness` decides CERTIFIED /
REFUTED / UNKNOWN by running 0-1 batches through a bit-sliced
comparator-IR interpreter (64 inputs per ``uint64`` word; its step loop
runs in C where the shared library of :mod:`repro._clib` builds, in
NumPy otherwise, with identical results) — exhaustively
for meshes up to :data:`~repro.analysis.semantics.checker.EXHAUSTIVE_CELL_LIMIT` cells,
by seeded stratified sampling beyond (which never answers a false
CERTIFIED).  Certificates carry the minimal certified step bound or a
minimal 0-1 counterexample, and are content-addressed by schedule value
identity so re-analysis is a cache hit with zero interpreter steps.

Like everything under :mod:`repro.analysis`, this package never imports
an executor — the import-graph test in
``tests/analysis/test_mutant_classification.py`` enforces it.  See
docs/ANALYSIS.md ("Sortedness certification") for the decision table.
"""

from __future__ import annotations

from repro.analysis.semantics.cache import (
    CertificateStore,
    SemanticsCacheInfo,
    certificate_key,
    schedule_digest,
    semantics_cache_clear,
    semantics_cache_info,
)
from repro.analysis.semantics.checker import (
    EXHAUSTIVE_CELL_LIMIT,
    SortednessCertificate,
    certified_schedule_report,
    certify_sortedness,
)

__all__ = [
    "EXHAUSTIVE_CELL_LIMIT",
    "SortednessCertificate",
    "certify_sortedness",
    "certified_schedule_report",
    "CertificateStore",
    "SemanticsCacheInfo",
    "schedule_digest",
    "certificate_key",
    "semantics_cache_info",
    "semantics_cache_clear",
]
