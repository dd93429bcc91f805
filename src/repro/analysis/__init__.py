"""Static analysis for the reproduction: schedules and source code.

Two layers, both pure — neither executes a single sort step:

* :mod:`repro.analysis.schedule_check` proves structural properties of a
  :class:`~repro.core.schedule.Schedule` against a concrete mesh
  (comparator disjointness, bounds, wrap-around wiring, family
  consistency, obliviousness) and reports every violation with a rule ID.
  The comparator-network form it certifies is exactly what makes the
  paper's Section 2 0-1 reduction applicable.
* :mod:`repro.analysis.lint` enforces the repo's own conventions on the
  source tree (RNG only via :mod:`repro.randomness`, typed errors at the
  facade, a single observer-emission site, ...) with an AST rule engine.
* :mod:`repro.analysis.semantics` certifies *function*: a 0-1-principle
  model checker that decides whether a schedule actually sorts
  (CERTIFIED with a minimal step bound / REFUTED with a minimal 0-1
  counterexample / UNKNOWN), content-addressed so re-analysis is a
  cache hit.

All three surface through ``repro analyze`` (see
:mod:`repro.analysis.__main__`) and are documented in docs/ANALYSIS.md.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS = {
    "check_schedule": "repro.analysis.schedule_check",
    "ScheduleReport": "repro.analysis.schedule_check",
    "ScheduleViolation": "repro.analysis.schedule_check",
    "SCHEDULE_RULES": "repro.analysis.schedule_check",
    "SortednessCertificate": "repro.analysis.semantics.checker",
    "certify_sortedness": "repro.analysis.semantics.checker",
    "certified_schedule_report": "repro.analysis.semantics.checker",
    "CertificateStore": "repro.analysis.semantics.cache",
    "semantics_cache_info": "repro.analysis.semantics.cache",
    "semantics_cache_clear": "repro.analysis.semantics.cache",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
