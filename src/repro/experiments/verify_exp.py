"""E-VERIFY: the verification harness as a registered experiment.

Runs the differential + metamorphic sweep of :mod:`repro.verify` at the
budget matching the experiment scale (``quick`` -> smoke, ``full`` ->
deep) and tabulates checks/failures per property.  Failed checks stay in
the table, so the registry's "Backend agreement" claim reports them as a
VIOLATED verdict and ``repro run`` exits 1.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import Table
from repro.verify.runner import VerifyConfig, run_verify

__all__ = ["exp_verify"]


def exp_verify(cfg: ExperimentConfig) -> Table:
    """Differential/metamorphic verification sweep (smoke at quick scale)."""
    budget = "smoke" if cfg.scale == "quick" else "deep"
    report = run_verify(
        VerifyConfig(budget=budget, seed=cfg.seed, shrink=False)
    )
    table = report.to_table()
    table.title = f"E-VERIFY: backend verification sweep ({budget})"
    passed = len(report.records) - len(report.failures)
    table.add_note(
        f"{passed} checks passed in {report.elapsed_seconds:.2f}s; "
        "see docs/VERIFICATION.md for the property definitions."
    )
    return table
