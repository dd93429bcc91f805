"""Experiment harness: Monte-Carlo runners and the per-theorem registry.

:func:`sample` is the one sampling entry point (in-process or sharded
campaign mode); :func:`evaluate_claims` turns a registry table into one
verdict per paper claim its :class:`ExperimentSpec` declares.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExperimentConfig": "repro.experiments.config",
    "TrialStats": "repro.experiments.montecarlo",
    "SampleResult": "repro.campaign.result",
    "sample": "repro.experiments.sampling",
    "summarize": "repro.experiments.montecarlo",
    "Claim": "repro.experiments.claims",
    "ClaimResult": "repro.experiments.claims",
    "Verdict": "repro.experiments.claims",
    "evaluate_claims": "repro.experiments.claims",
    "EXPERIMENTS": "repro.experiments.registry",
    "ExperimentSpec": "repro.experiments.registry",
    "experiment_ids": "repro.experiments.registry",
    "run_experiment": "repro.experiments.registry",
    "Table": "repro.experiments.tables",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
