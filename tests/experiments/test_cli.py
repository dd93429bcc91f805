"""CLI coverage for ``repro run``.

Runs :func:`repro.experiments.cli.main` in-process so exit codes,
stdout/stderr, and emitted artifacts (CSV, traces, manifests, metrics)
can all be asserted cheaply.  E-C1 is the workhorse experiment here: it is
deterministic and finishes in tens of milliseconds at quick scale.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import DimensionError
from repro.experiments.cli import main
from repro.experiments.registry import EXPERIMENTS
from repro.obs import load_manifest, read_trace, replay_command


class TestListAndUsage:
    def test_list_exits_zero_and_names_experiments(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E-T2" in out
        assert "Theorem 2" in out

    def test_no_ids_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "give experiment ids" in capsys.readouterr().err

    def test_unknown_id_is_clear_error(self, capsys):
        assert main(["E-NOPE"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment id(s) E-NOPE" in err
        assert "E-T2" in err  # suggests the known ids


class TestRunAndCsv:
    def test_run_prints_table(self, capsys):
        assert main(["E-C1"]) == 0
        out = capsys.readouterr().out
        assert "E-C1" in out
        assert "finished in" in out

    def test_csv_creates_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "does" / "not" / "exist"
        assert main(["E-C1", "--csv", str(target)]) == 0
        assert (target / "E-C1.csv").exists()
        header = (target / "E-C1.csv").read_text().splitlines()[0]
        assert "," in header

    def test_csv_unwritable_path_is_clear_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["E-C1", "--csv", str(blocker / "sub")]) == 2
        assert "not writable" in capsys.readouterr().err

    def test_trace_unwritable_path_is_clear_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["E-C1", "--trace", str(blocker / "sub")]) == 2
        assert "not writable" in capsys.readouterr().err


class TestTrace:
    def test_trace_emits_events_and_manifest(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["E-C1", "--trace", str(trace_dir)]) == 0
        events = read_trace(trace_dir / "E-C1" / "events.jsonl")  # validates
        assert any(ev["event"] == "run_start" for ev in events)
        assert any(ev["event"] == "step" for ev in events)
        manifest = load_manifest(trace_dir / "E-C1" / "manifest.json")
        assert manifest.exp_id == "E-C1"
        assert manifest.seed == 20260706
        assert manifest.result_digest
        assert replay_command(manifest).startswith("repro run E-C1")

    def test_trace_replay_reproduces_events(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["E-C1", "--seed", "77", "--trace", str(d)]) == 0
        first = read_trace(dirs[0] / "E-C1" / "events.jsonl")
        second = read_trace(dirs[1] / "E-C1" / "events.jsonl")
        # Wall times differ between runs; everything else is identical.
        def strip(events):
            return [
                {k: v for k, v in ev.items() if k != "wall_time"}
                for ev in events
            ]
        assert strip(first) == strip(second)


class TestMetricsOut:
    def test_metrics_out_creates_missing_parent_dirs(self, tmp_path, capsys):
        out = tmp_path / "does" / "not" / "exist" / "metrics.json"
        assert main(["E-C1", "--metrics-out", str(out)]) == 0
        assert json.loads(out.read_text())["repro_runs_total"]["value"] >= 1

    def test_metrics_out_unwritable_path_fails_fast(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["E-C1", "--metrics-out", str(blocker / "m.json")]) == 2
        assert "not writable" in capsys.readouterr().err

    def test_trace_creates_missing_parent_dirs(self, tmp_path, capsys):
        trace_dir = tmp_path / "nested" / "deeper" / "traces"
        assert main(["E-C1", "--trace", str(trace_dir)]) == 0
        read_trace(trace_dir / "E-C1" / "events.jsonl")  # exists + validates

    def test_json_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["E-C1", "--metrics-out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["repro_runs_total"]["value"] >= 1
        assert data["repro_steps_total"]["value"] > 0
        assert data["repro_phase_seconds"]["count"] == 1

    def test_prometheus_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        assert main(["E-C1", "--metrics-out", str(out)]) == 0
        text = out.read_text()
        assert "# TYPE repro_runs_total counter" in text
        assert "repro_run_seconds_count" in text


class TestProgress:
    def test_progress_lines_on_stderr(self, capsys):
        assert main(["E-C1", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[E-C1 starting" in err
        assert "run 1" in err


class TestSummary:
    def test_summary_has_sections_and_timing(self, tmp_path, capsys):
        out = tmp_path / "summary.md"
        assert main(["E-C1", "--summary", str(out)]) == 0
        text = out.read_text()
        assert "## E-C1" in text
        assert "## Timing" in text
        assert "E-C1" in text.split("## Timing")[1]

    def test_summary_unknown_id_is_clear_error(self, tmp_path, capsys):
        out = tmp_path / "summary.md"
        assert main(["E-NOPE", "--summary", str(out)]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_writes_csv_traces_manifests_and_claims(self, tmp_path, capsys):
        out = tmp_path / "summary.md"
        code = main([
            "E-C1", "E-NOWRAP", "--summary", str(out),
            "--csv", str(tmp_path / "csv"), "--trace", str(tmp_path / "tr"),
        ])
        assert code == 0
        for exp_id in ("E-C1", "E-NOWRAP"):
            assert (tmp_path / "csv" / f"{exp_id}.csv").stat().st_size
            read_trace(tmp_path / "tr" / exp_id / "events.jsonl")
            manifest = load_manifest(tmp_path / "tr" / exp_id / "manifest.json")
            (claim,) = manifest.extra["claims"]
            assert claim["verdict"] == "HOLDS"
            assert set(claim) >= {"label", "verdict", "margin"}
        claims = out.read_text().split("## Claims")[1].split("## Timing")[0]
        assert "| E-C1 | Corollary 1 | HOLDS |" in claims
        assert "| E-NOWRAP | Section 1 wrap-around necessity | HOLDS |" in claims
        assert "claims: 2 checked: 2 HOLDS" in capsys.readouterr().out

    def test_experiment_error_exits_2_without_summary(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise DimensionError("side 0 is not a mesh")

        spec = EXPERIMENTS["E-C1"]
        monkeypatch.setitem(EXPERIMENTS, "E-C1", dataclasses.replace(spec, run=broken))
        out = tmp_path / "summary.md"
        assert main(["E-C1", "--summary", str(out)]) == 2
        assert "error: E-C1: side 0 is not a mesh" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_with_metrics(self, tmp_path, capsys):
        out = tmp_path / "summary.md"
        metrics = tmp_path / "m.json"
        code = main(
            ["E-C1", "--summary", str(out), "--metrics-out", str(metrics)]
        )
        assert code == 0
        data = json.loads(metrics.read_text())
        assert data["repro_runs_total"]["value"] >= 1


@pytest.mark.parametrize("flag", ["--trace", "--csv"])
def test_artifact_dirs_shared_across_experiments(tmp_path, capsys, flag):
    """Two ids in one invocation land side by side under one directory."""
    target = tmp_path / "artifacts"
    assert main(["E-C1", "E-NOWRAP", flag, str(target)]) == 0
    if flag == "--trace":
        assert (target / "E-C1" / "events.jsonl").exists()
        assert (target / "E-NOWRAP" / "events.jsonl").exists()
    else:
        assert (target / "E-C1.csv").exists()
        assert (target / "E-NOWRAP.csv").exists()
