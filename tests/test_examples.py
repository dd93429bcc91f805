"""Smoke tests: every example script runs end to end on small inputs.

Scripts run with deprecation warnings as errors, so an example can only
teach live API.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("quickstart.py", ["8"]),
    ("algorithm_race.py", ["--trials", "4", "--sides", "4,8"]),
    ("theory_validation.py", ["--trials", "500", "--side", "8"]),
    ("adversarial_inputs.py", ["6"]),
    ("smallest_element_walk.py", ["6"]),
    ("zeroone_filmstrip.py", ["6", "2"]),
    ("exact_distributions.py", ["8"]),
    ("rectangular_meshes.py", ["64"]),
    ("trace_report.py", ["snake_2", "6"]),
    ("fault_tolerance.py", ["6"]),
]


@pytest.mark.parametrize("script,args", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args):
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(path), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{script} produced no output"


def test_trace_report_traced_run(tmp_path):
    """The observability walkthrough: --trace emits a valid trace + manifest."""
    result = subprocess.run(
        [
            sys.executable,
            str(EXAMPLES / "trace_report.py"),
            "snake_2", "6", "--trace", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    from repro.obs import load_manifest, read_trace

    events = read_trace(tmp_path / "events.jsonl")  # schema-validates
    assert any(ev["event"] == "cycle" and "info" in ev for ev in events)
    manifest = load_manifest(tmp_path / "manifest.json")
    assert manifest.algorithm == "snake_2"
    assert manifest.extra["steps"] > 0


def test_experiments_cli_list():
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "--list"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "E-T2" in result.stdout


def test_experiments_cli_runs_one(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "E-C1", "--csv", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert (tmp_path / "E-C1.csv").exists()
    assert "Corollary 1" in result.stdout


def test_experiments_cli_rejects_no_args():
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2


def test_experiments_cli_summary(tmp_path):
    out = tmp_path / "summary.md"
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "--summary", str(out), "E-C1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    text = out.read_text()
    assert "E-C1" in text and "Corollary 1" in text
