"""CLI coverage for ``repro run``.

Runs :func:`repro.experiments.cli.main` in-process so exit codes,
stdout/stderr, and emitted artifacts (CSV, traces, manifests, metrics)
can all be asserted cheaply.  E-C1 is the workhorse experiment here: it is
deterministic and finishes in tens of milliseconds at quick scale.
"""

from __future__ import annotations

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


def _tables(out: str) -> list[str]:
    """The printed output without its wall-clock lines."""
    return [line for line in out.splitlines() if "finished in" not in line]


class TestBackendFlag:
    def test_direct_batched_sorts_run_on_the_chosen_backend(self, capsys, monkeypatch):
        from repro.backends.interpreter import ReferenceBackend

        assert main(["E-RECT", "E-1D"]) == 0
        default = capsys.readouterr().out
        prepared = []
        prepare = ReferenceBackend.prepare

        def counting(self, schedule, grid):
            prepared.append(schedule.name)
            return prepare(self, schedule, grid)

        monkeypatch.setattr(ReferenceBackend, "prepare", counting)
        assert main(["E-RECT", "E-1D", "--backend", "reference"]) == 0
        assert _tables(capsys.readouterr().out) == _tables(default)
        assert "odd_even" in prepared and "snake_1" in prepared

    def test_mesh_backend_runs_the_linear_array(self, capsys):
        assert main(["E-1D"]) == 0
        default = capsys.readouterr().out
        assert main(["E-1D", "--backend", "mesh"]) == 0
        assert _tables(capsys.readouterr().out) == _tables(default)

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--backend", "rect"], "unknown backend 'rect'"),
            (["--resume"], "resume=True requires checkpoint_dir"),
        ],
    )
    @pytest.mark.parametrize(
        "mode", [["E-C1"], ["--algorithm", "snake_1", "--side", "6", "--trials", "8"]]
    )
    def test_execution_flags_are_checked_once_for_both_modes(
        self, capsys, flags, message, mode
    ):
        assert main(mode + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


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


class TestDirectSample:
    """``--algorithm`` mode: one sample line, optionally cached and metered."""

    ARGS = ["--algorithm", "snake_1", "--side", "4", "--trials", "8"]

    def test_metrics_out_is_written(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main([*self.ARGS, "--metrics-out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["repro_runs_total"]["value"] >= 1
        assert data["repro_steps_total"]["value"] > 0
        assert f"wrote {out}" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--csv", "--trace", "--summary", "--progress"])
    def test_experiment_only_flags_are_usage_errors(self, tmp_path, capsys, flag):
        target = tmp_path / "out"
        extra = [flag] if flag == "--progress" else [flag, str(target)]
        metrics = tmp_path / "m.json"
        assert main([*self.ARGS, *extra, "--metrics-out", str(metrics)]) == 2
        assert f"cannot be combined with {flag}" in capsys.readouterr().err
        assert not target.exists() and not metrics.exists()

    def test_side_and_trials_are_required(self, capsys):
        assert main(["--algorithm", "snake_1", "--side", "4"]) == 2
        assert "requires --side and --trials" in capsys.readouterr().err

    def test_store_repeat_is_a_hit_that_runs_nothing(self, tmp_path, capsys):
        store = tmp_path / "S"
        lines, metrics = [], []
        for n in (1, 2):
            out = tmp_path / f"m{n}.json"
            assert main([*self.ARGS, "--store", str(store), "--metrics-out", str(out)]) == 0
            lines.append(capsys.readouterr().out.splitlines())
            metrics.append({k: v["value"] for k, v in json.loads(out.read_text()).items()
                            if k.endswith("_total")})
        assert "store: miss (stored)" in lines[0][1]
        assert "store: hit" in lines[1][1]
        assert lines[0][0] == lines[1][0]  # same stats and digest
        cold, hit = metrics
        assert cold["repro_service_store_puts_total"] == 1
        assert hit["repro_service_store_hits_total"] == 1
        assert hit["repro_runs_total"] == hit["repro_campaigns_total"] == 0


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

        assert EXPERIMENTS["E-C1"].runner == "adversarial:exp_corollary1"
        monkeypatch.setattr("repro.experiments.adversarial.exp_corollary1", broken)
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
