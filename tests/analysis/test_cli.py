"""``repro analyze``, the ``repro`` front door, and the compile/verify wiring."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro._version import __version__
from repro.analysis.__main__ import main as analyze_main
from repro.analysis.__main__ import schedule_reports
from repro.analysis.schedule_check import check_schedule
from repro.backends.compile import compiled_schedule, schedule_cache_clear
from repro.cli import main as repro_main
from repro.core.algorithms import get_algorithm
from repro.core.schedule import FORWARD, LineOp, Schedule, Step
from repro.errors import ScheduleValidationError, UnsupportedMeshError

ROOT = Path(__file__).parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
TRIGGERS = sorted((FIXTURES / "src" / "repro").glob("rpr*_trigger.py")) + [
    FIXTURES / "tests" / "rpr106_trigger.py"
]


class TestAnalyzeCli:
    def test_self_check_repo_is_clean(self):
        """The repo passes its own analyzer: lint + schedule verification."""
        assert analyze_main([str(ROOT / "src"), str(ROOT / "tests"), "--quiet"]) == 0

    @pytest.mark.parametrize("trigger", TRIGGERS, ids=lambda p: p.stem)
    def test_each_trigger_fixture_fails(self, trigger):
        assert analyze_main([str(trigger), "--no-schedules", "--quiet"]) == 1

    def test_list_rules(self, capsys):
        assert analyze_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR101", "RPR108", "SCH001", "SCH009"):
            assert rule_id in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert analyze_main(["--rules", "RPR999", str(FIXTURES)]) == 2
        assert "unknown lint rules" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self):
        assert analyze_main([str(ROOT / "no-such-dir"), "--no-schedules"]) == 2

    def test_rule_subset(self):
        trigger = FIXTURES / "src" / "repro" / "rpr105_trigger.py"
        assert analyze_main([str(trigger), "--no-schedules",
                             "--rules", "RPR101", "--quiet"]) == 0
        assert analyze_main([str(trigger), "--no-schedules",
                             "--rules", "RPR105", "--quiet"]) == 1

    def test_json_report_shape(self, capsys):
        clean = FIXTURES / "src" / "repro" / "rpr101_clean.py"
        assert analyze_main([str(clean), "--json", "--sides", "4"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["version"] == 1 and blob["ok"] is True
        assert blob["lint"]["files_checked"] == 1
        names = {report["name"] for report in blob["schedules"]}
        assert "snake_1" in names
        assert any(name.startswith("shearsort") for name in names)
        assert all(report["oblivious"] for report in blob["schedules"])

    def test_json_out_file(self, tmp_path):
        out = tmp_path / "report" / "analysis.json"
        clean = FIXTURES / "src" / "repro" / "rpr104_clean.py"
        assert analyze_main([str(clean), "--json-out", str(out),
                             "--no-schedules", "--quiet"]) == 0
        assert json.loads(out.read_text())["ok"] is True

    def test_schedule_layer_failure_sets_exit_code(self, capsys):
        # Odd sides only: the even-side algorithms are skipped, the snakes
        # still verify; a clean run.  Then check the no-lint path too.
        assert analyze_main(["--no-lint", "--sides", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_schedule_reports_cover_registry_and_baseline(self):
        reports = schedule_reports((4, 5))
        names = {r.name for r in reports}
        assert "row_major_row_first" in names
        assert any(name.startswith("shearsort") for name in names)
        assert all(r.ok for r in reports)
        # requires_even_side algorithms are not checked at odd sides
        assert not any(r.name.startswith("row_major") and r.rows == 5 for r in reports)


class TestReproFrontDoor:
    def test_version_flag(self, capsys):
        for flag in ("--version", "-V"):
            assert repro_main([flag]) == 0
            assert __version__ in capsys.readouterr().out

    def test_no_args_is_usage_error(self, capsys):
        assert repro_main([]) == 2
        assert "usage: repro" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert repro_main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "exit codes" in out
        listed = out.split("subcommands:\n")[1].split("\n\n")[0].splitlines()
        assert [line.split()[0] for line in listed] == ["run", "verify", "analyze"]

    def test_unknown_subcommand(self, capsys):
        assert repro_main(["fnord"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_retired_experiment_aliases_are_usage_errors(self, capsys):
        """``repro run`` is the one spelling of the experiments CLI."""
        for alias in ("experiments", "exp"):
            assert repro_main([alias, "--list"]) == 2
            assert "unknown subcommand" in capsys.readouterr().err

    def test_retired_bench_is_a_usage_error(self, capsys):
        """Performance is gated by the e2e benchmark, not a subcommand, and
        the job service is gone: the result store sits behind ``run
        --store``."""
        for argv in (["bench", "--smoke"], ["serve", "--once"], ["jobs", "list"]):
            assert repro_main(argv) == 2
            err = capsys.readouterr().err
            assert f"unknown subcommand {argv[0]!r}" in err

    def test_analyze_dispatch(self):
        clean = FIXTURES / "src" / "repro" / "rpr102_clean.py"
        assert repro_main(["analyze", str(clean), "--no-schedules", "--quiet"]) == 0
        trigger = FIXTURES / "src" / "repro" / "rpr102_trigger.py"
        assert repro_main(["analyze", str(trigger), "--no-schedules", "--quiet"]) == 1


class TestCompileIntegration:
    def test_clean_schedule_compiles_and_checks_clean(self):
        compiled = compiled_schedule(get_algorithm("snake_1"), 5, 5)
        report = check_schedule(get_algorithm("snake_1"), 5)
        assert report.ok and report.oblivious
        assert compiled.rows == compiled.cols == report.rows == report.cols == 5
        lo, _, _ = compiled.program
        assert lo.size == report.comparators_per_cycle

    def test_compilation_is_cached(self):
        schedule_cache_clear()
        first = compiled_schedule(get_algorithm("snake_2"), 4, 4)
        second = compiled_schedule(get_algorithm("snake_2"), 4, 4)
        assert second is first
        assert second.program is first.program

    def test_policy_violations_do_not_block_compilation(self):
        from repro.schedules import build_row_major_no_wrap

        compiled_schedule(build_row_major_no_wrap(), 4, 4)
        report = check_schedule(build_row_major_no_wrap(), 4)
        assert [v.rule for v in report.violations] == ["SCH005"]
        assert report.oblivious  # executable, paper-noncompliant

    def test_structural_violations_raise_historical_types(self):
        with pytest.raises(UnsupportedMeshError):
            compiled_schedule(get_algorithm("row_major_row_first"), 5, 5)
        with pytest.raises(UnsupportedMeshError):
            compiled_schedule(get_algorithm("snake_1"), 1, 1)
        clash = Schedule(
            name="clash",
            steps=(
                Step(LineOp("row", 0, FORWARD, lines="odd"),
                     LineOp("row", 1, FORWARD, lines="odd")),
            ),
            order="snake",
        )
        with pytest.raises(ScheduleValidationError):
            compiled_schedule(clash, 4, 4)


class TestVerifyIntegration:
    def test_static_schedule_property_in_verify_sweep(self):
        from repro.verify.runner import VerifyConfig, run_verify

        report = run_verify(VerifyConfig(
            algorithms=("snake_1",), backends=("vectorized",)
        ))
        statics = [r for r in report.records if r.prop == "static_schedule"]
        assert statics and all(r.ok for r in statics)
        assert {r.side for r in statics} == {4, 6}  # smoke-budget sides


class TestCertifyCli:
    def test_certify_sweep_is_clean_and_counts_certificates(self, capsys):
        assert analyze_main(["--no-lint", "--certify", "--sides", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "certificates: " in out and "0 refuted" in out
        assert "declared certified sides:" in out

    def test_certify_refuted_family_fails_with_witness(self, capsys):
        code = analyze_main([
            "--no-lint", "--certify",
            "--family", "row_major_no_wrap", "--sides", "4",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "statically REFUTED" in out and "witness" in out

    def test_certify_json_carries_semantics_sections(self, capsys):
        assert analyze_main([
            "--no-lint", "--certify", "--json",
            "--family", "row_major_no_wrap", "--sides", "4",
        ]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is False
        assert blob["semantics_findings"]
        [report] = blob["schedules"]
        assert report["semantics"]["verdict"] == "REFUTED"
        assert report["semantics"]["witness"] is not None

    def test_family_spec_pins_a_single_instance(self, capsys):
        assert analyze_main([
            "--no-lint", "--family", "random_network[side=8,seed=7]",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("schedule 'random_network") == 1
        assert "1 schedule report(s)" in out

    def test_family_without_side_sweeps_requested_sides(self):
        reports = schedule_reports((4, 6), family="shearsort")
        assert [r.rows for r in reports] == [4, 6]

    def test_unknown_family_is_usage_error(self, capsys):
        assert analyze_main(["--no-lint", "--family", "nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_bad_spec_is_usage_error(self, capsys):
        assert analyze_main(["--no-lint", "--family", "snake_1[side=big]"]) == 2
        assert "bad parameter" in capsys.readouterr().err

    def test_certify_with_no_schedules_is_usage_error(self, capsys):
        assert analyze_main(["--no-schedules", "--certify"]) == 2
        assert "--no-schedules" in capsys.readouterr().err

    def test_certificate_dir_persists_artifacts(self, tmp_path, capsys):
        from repro.analysis.semantics import semantics_cache_clear

        store_dir = tmp_path / "certs"
        argv = [
            "--no-lint", "--certify", "--quiet",
            "--family", "snake_1", "--sides", "4",
            "--certificate-dir", str(store_dir),
        ]
        assert analyze_main(argv) == 0
        capsys.readouterr()
        written = list(store_dir.rglob("*.json"))
        assert len(written) == 1
        # Second run in a fresh in-memory cache reuses the stored proof.
        semantics_cache_clear()
        assert analyze_main(argv) == 0
        assert list(store_dir.rglob("*.json")) == written

    def test_front_door_certify_dispatch(self, capsys):
        assert repro_main([
            "analyze", "--no-lint", "--certify", "--quiet",
            "--family", "odd_even", "--sides", "4",
        ]) == 0
        assert "PASS" in capsys.readouterr().out
