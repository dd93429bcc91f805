"""The verify orchestrator, its metrics, the CLI, and the E-VERIFY entry."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.orders import is_sorted_grid
from repro.errors import DimensionError
from repro.obs.manifest import load_manifest
from repro.obs.metrics import MetricsRegistry
from repro.verify import runner as runner_mod
from repro.verify.differential import DifferentialReport, Mismatch
from repro.verify.runner import BUDGETS, VerifyConfig, run_verify

CORPUS_DIR = Path(__file__).parent / "corpus"

_SMALL = dict(algorithms=("snake_1",), backends=("vectorized", "reference"))


class TestVerifyConfig:
    def test_bad_budget_rejected(self):
        with pytest.raises(DimensionError):
            VerifyConfig(budget="enormous")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(DimensionError):
            VerifyConfig(algorithms=("quicksort",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(DimensionError):
            VerifyConfig(backends=("gpu",))

    def test_even_side_requirement_filters_sides(self):
        config = VerifyConfig(budget="deep")
        assert 5 in config.sides_for("snake_1")
        assert all(s % 2 == 0 for s in config.sides_for("row_major_row_first"))
        assert set(BUDGETS["deep"]["sides"]) >= set(config.sides_for("snake_1"))


class TestRunVerify:
    def test_smoke_sweep_passes_and_counts_metrics(self):
        registry = MetricsRegistry()
        report = run_verify(VerifyConfig(**_SMALL), registry=registry)
        assert report.ok, report.summary()
        assert report.records
        assert registry["repro_verify_checks_total"].value == len(report.records)
        assert registry["repro_verify_violations_total"].value == 0
        assert registry["repro_verify_seconds"].count == 1
        props = {r.prop for r in report.records}
        assert props == {
            "static_schedule",
            "differential",
            "threshold_consistency",
            "relabeling_invariance",
            "lemma_invariants",
        }

    def test_corpus_entries_are_replayed(self):
        report = run_verify(VerifyConfig(**_SMALL, corpus_dir=CORPUS_DIR))
        assert report.corpus_entries == len(list(CORPUS_DIR.glob("*.json")))
        assert any(r.prop.startswith("corpus:") for r in report.records)
        assert report.ok, report.summary()

    def test_summary_and_table_agree(self):
        report = run_verify(VerifyConfig(**_SMALL))
        assert "PASS" in report.summary()
        table = report.to_table()
        assert sum(row[1] for row in table.rows) == len(report.records)
        assert sum(row[2] for row in table.rows) == 0

    def test_failed_check_is_a_violated_claim(self, monkeypatch, capsys):
        from repro.experiments import verify_exp
        from repro.experiments.cli import main as run_main
        from repro.verify.runner import CheckRecord, VerifyReport

        report = VerifyReport("smoke", ("snake_1",), ("vectorized", "mesh"), [
            CheckRecord("differential", "snake_1", 4, "random"),
            CheckRecord("differential", "snake_1", 4, "sorted", ["mesh disagrees"]),
        ])
        monkeypatch.setattr(verify_exp, "run_verify", lambda cfg: report)
        assert run_main(["E-VERIFY"]) == 1
        out = capsys.readouterr().out
        assert "differential |      2 |        1" in out
        assert "VIOLATED     E-VERIFY Backend agreement" in out

    def test_failures_are_shrunk_and_saved(self, tmp_path, monkeypatch):
        """A planted differential bug is minimized and serialized."""

        def fake_differential(algorithm, grid, *, backends=None, **kwargs):
            grid = np.asarray(grid)
            name = algorithm if isinstance(algorithm, str) else algorithm.name
            report = DifferentialReport(
                algorithm=name, side=int(grid.shape[0]),
                backends=tuple(backends or ()),
            )
            if not bool(np.all(is_sorted_grid(grid, "snake"))):
                report.mismatches.append(
                    Mismatch("steps", "reference", "vectorized", detail="planted")
                )
            return report

        monkeypatch.setattr(runner_mod, "differential_run", fake_differential)
        registry = MetricsRegistry()
        report = run_verify(
            VerifyConfig(**_SMALL, failure_dir=tmp_path), registry=registry
        )
        failures = [r for r in report.records if r.prop == "differential" and not r.ok]
        assert failures
        assert registry["repro_verify_counterexamples_total"].value > 0
        shrunk = [r for r in failures if r.shrunk]
        assert shrunk, "failures must be minimized"
        saved = list(tmp_path.glob("differential-*.json"))
        assert saved, "counterexamples must be serialized"
        assert any(r.saved_to for r in failures)


class TestCli:
    def test_smoke_cli_exits_zero(self, tmp_path):
        from repro.verify.__main__ import main

        manifest_path = tmp_path / "manifest.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main([
            "--smoke", "--algorithms", "snake_1",
            "--backends", "vectorized", "reference",
            "--manifest", str(manifest_path),
            "--metrics-out", str(metrics_path),
        ])
        assert rc == 0
        manifest = load_manifest(manifest_path)
        assert manifest.kind == "verify"
        assert manifest.exp_id == "E-VERIFY"
        assert manifest.extra["failures"] == 0
        assert manifest.extra["checks"] > 0
        metrics = json.loads(metrics_path.read_text())
        assert "repro_verify_checks_total" in metrics

    def test_bad_backend_is_usage_error(self):
        from repro.verify.__main__ import main

        assert main(["--smoke", "--backends", "gpu"]) == 2

    def test_metrics_out_creates_missing_parent_dirs(self, tmp_path):
        from repro.verify.__main__ import main

        out = tmp_path / "does" / "not" / "exist" / "metrics.json"
        rc = main([
            "--smoke", "--algorithms", "snake_1", "--backends", "vectorized",
            "--corpus", "", "--metrics-out", str(out),
        ])
        assert rc == 0
        assert "repro_verify_checks_total" in json.loads(out.read_text())

    def test_metrics_out_unwritable_path_fails_fast(self, tmp_path, capsys):
        from repro.verify.__main__ import main

        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main([
            "--smoke", "--algorithms", "snake_1", "--backends", "vectorized",
            "--corpus", "", "--metrics-out", str(blocker / "m.json"),
        ])
        assert rc == 2
        assert "not writable" in capsys.readouterr().err

    def test_prometheus_metrics_output(self, tmp_path):
        from repro.verify.__main__ import main

        out = tmp_path / "metrics.prom"
        rc = main([
            "--smoke", "--algorithms", "snake_1", "--backends", "vectorized",
            "--corpus", "", "--metrics-out", str(out),
        ])
        assert rc == 0
        assert "repro_verify_checks_total" in out.read_text()

    def test_repro_command_dispatches(self):
        from repro.cli import main

        rc = main(["verify", "--smoke", "--algorithms", "snake_1",
                   "--backends", "vectorized", "--corpus", "", "--quiet"])
        assert rc == 0
        assert main(["no-such-subcommand"]) == 2
        assert main(["--help"]) == 0


class TestExperimentEntry:
    def test_e_verify_is_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "E-VERIFY" in EXPERIMENTS

    def test_exp_verify_runs_at_quick_scale(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.registry import run_experiment

        table = run_experiment("E-VERIFY", ExperimentConfig(scale="quick"))
        assert "E-VERIFY" in table.title
        assert sum(row[2] for row in table.rows) == 0

    def test_failed_check_is_a_violated_claim(self, monkeypatch, capsys):
        from repro.experiments import verify_exp
        from repro.experiments.cli import main as run_main
        from repro.verify.runner import CheckRecord, VerifyReport

        report = VerifyReport("smoke", ("snake_1",), ("vectorized", "mesh"), [
            CheckRecord("differential", "snake_1", 4, "random"),
            CheckRecord("differential", "snake_1", 4, "sorted", ["mesh disagrees"]),
        ])
        monkeypatch.setattr(verify_exp, "run_verify", lambda cfg: report)
        assert run_main(["E-VERIFY"]) == 1
        out = capsys.readouterr().out
        assert "differential |      2 |        1" in out
        assert "VIOLATED     E-VERIFY Backend agreement" in out
