"""Experiment harness: Monte-Carlo runners and the per-theorem registry.

:func:`sample` is the one sampling entry point (in-process or sharded
campaign mode).
"""

from repro.campaign.result import SampleResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.montecarlo import TrialStats, summarize
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    experiment_ids,
    run_experiment,
)
from repro.experiments.sampling import sample
from repro.experiments.tables import Table

__all__ = [
    "ExperimentConfig",
    "TrialStats",
    "SampleResult",
    "sample",
    "summarize",
    "EXPERIMENTS",
    "ExperimentSpec",
    "experiment_ids",
    "run_experiment",
    "Table",
]
