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

from repro._lazy import lazy_exports

_EXPORTS = {
    "EXHAUSTIVE_CELL_LIMIT": "repro.analysis.semantics.checker",
    "SortednessCertificate": "repro.analysis.semantics.checker",
    "certify_sortedness": "repro.analysis.semantics.checker",
    "certified_schedule_report": "repro.analysis.semantics.checker",
    "CertificateStore": "repro.analysis.semantics.cache",
    "SemanticsCacheInfo": "repro.analysis.semantics.cache",
    "schedule_digest": "repro.analysis.semantics.cache",
    "certificate_key": "repro.analysis.semantics.cache",
    "semantics_cache_info": "repro.analysis.semantics.cache",
    "semantics_cache_clear": "repro.analysis.semantics.cache",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
