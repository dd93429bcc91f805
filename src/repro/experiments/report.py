"""Markdown summary report rendering (``repro run --summary``).

Renders an EXPERIMENTS.md-style artifact from the runs ``repro run`` just
made: one section per experiment with the full result table fenced as
code, prefixed by the run configuration so the artifact is self-describing
and reproducible, then the claim scorecard and a phase-timing table
showing where the run's wall time went.
"""

from __future__ import annotations

from typing import NamedTuple

from repro._version import __version__
from repro.experiments.claims import ClaimResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.tables import Table
from repro.obs.timing import PhaseTimer

__all__ = ["ExperimentRun", "render_summary"]

_HEADER = """# Experiment summary — Savari (SPAA 1993) reproduction

Generated by `repro run --summary` with repro v{version},
scale=`{scale}`, seed={seed}.  Each section reproduces the paper artifact
named in its title; DESIGN.md maps experiment ids to theorems, and
EXPERIMENTS.md interprets the full-scale numbers.
"""


class ExperimentRun(NamedTuple):
    """One finished experiment: its table, wall time and claim verdicts."""

    exp_id: str
    table: Table
    elapsed: float
    claims: list[ClaimResult]


def render_summary(
    runs: list[ExperimentRun], cfg: ExperimentConfig, timer: PhaseTimer
) -> str:
    """The markdown summary of ``runs``: tables, claims, then timing."""
    sections = [_HEADER.format(version=__version__, scale=cfg.scale, seed=cfg.seed)]
    for run in runs:
        sections.append(
            f"## {run.exp_id} — {EXPERIMENTS[run.exp_id].paper_artifact}\n\n"
            f"```\n{run.table.to_text()}\n```\n"
            f"*({run.elapsed:.1f}s at scale={cfg.scale})*\n"
        )
    lines = [
        "## Claims\n",
        "| experiment | claim | verdict | margin | detail |",
        "|---|---|---|---|---|",
    ]
    for run in runs:
        if not run.claims:
            lines.append(f"| {run.exp_id} | (no claim declared) | | | |")
        for result in run.claims:
            lines.append(
                f"| {run.exp_id} | {result.label} | {result.verdict.value} "
                f"| {result.margin:+.3f} | {result.detail} |"
            )
    sections.append("\n".join(lines) + "\n")
    sections.append(
        "## Timing\n\n"
        f"```\n{timer.render_table()}\n```\n"
    )
    return "\n".join(sections)
