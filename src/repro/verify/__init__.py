"""repro.verify: differential and metamorphic verification harness.

The executors are cross-checked three ways, all driven from deterministic
inputs so any failure replays from a seed:

* :mod:`repro.verify.differential` — every backend must produce the same
  trajectory, cell for cell, on the same input;
* :mod:`repro.verify.metamorphic` — properties any correct transcription
  must satisfy: the Section 2 0-1 threshold reduction, order-isomorphism
  under monotone relabelings, and the paper's lemma invariants checked on
  live runs via :class:`~repro.verify.metamorphic.InvariantObserver`;
* :mod:`repro.verify.shrink` / :mod:`repro.verify.corpus` — failing inputs
  are minimized to small reproducers and committed to a replayable
  regression corpus under ``tests/verify/corpus/``.

Run the whole sweep with ``repro verify --smoke`` (CI gate) or ``--deep``
(nightly), or programmatically via :func:`repro.verify.run_verify`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BUDGETS": "repro.verify.runner",
    "CheckRecord": "repro.verify.runner",
    "DifferentialReport": "repro.verify.differential",
    "InputCase": "repro.verify.inputs",
    "InvariantObserver": "repro.verify.metamorphic",
    "MUTATIONS": "repro.verify.mutations",
    "Mismatch": "repro.verify.differential",
    "Reproducer": "repro.verify.corpus",
    "ShrinkResult": "repro.verify.shrink",
    "VerifyConfig": "repro.verify.runner",
    "VerifyReport": "repro.verify.runner",
    "all_mutants": "repro.verify.mutations",
    "classify_mutants": "repro.verify.mutations",
    "classify_mutants_semantic": "repro.verify.mutations",
    "check_relabeling_invariance": "repro.verify.metamorphic",
    "check_threshold_consistency": "repro.verify.metamorphic",
    "differential_run": "repro.verify.differential",
    "generate_cases": "repro.verify.inputs",
    "load_corpus": "repro.verify.corpus",
    "monotone_relabelings": "repro.verify.metamorphic",
    "mutate_schedule": "repro.verify.mutations",
    "replay_reproducer": "repro.verify.corpus",
    "reversed_grid": "repro.verify.inputs",
    "run_verify": "repro.verify.runner",
    "run_with_invariants": "repro.verify.metamorphic",
    "save_reproducer": "repro.verify.corpus",
    "shrink_case": "repro.verify.shrink",
    "shrink_entries": "repro.verify.shrink",
    "sorted_target": "repro.verify.inputs",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
