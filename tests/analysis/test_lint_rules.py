"""The domain lint engine: per-rule fixtures, suppressions, engine plumbing.

Every rule gets one *trigger* fixture (parsed, never imported) and one
*clean near-miss* that exercises the adjacent-but-allowed pattern.  The
fixtures live under ``tests/analysis/fixtures/`` in ``src/repro/`` and
``tests/`` subtrees so the engine's path-based module naming puts them in
the right rule scope.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import all_rules, get_rule, lint_file, run_lint
from repro.analysis.lint.engine import module_name_for
from repro.analysis.lint.registry import LintRule, ModuleContext, register
from repro.errors import AnalysisError, ReproError

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = {
    "RPR101": FIXTURES / "src" / "repro" / "rpr101_trigger.py",
    "RPR102": FIXTURES / "src" / "repro" / "rpr102_trigger.py",
    "RPR103": FIXTURES / "src" / "repro" / "rpr103_trigger.py",
    "RPR104": FIXTURES / "src" / "repro" / "rpr104_trigger.py",
    "RPR105": FIXTURES / "src" / "repro" / "rpr105_trigger.py",
    "RPR106": FIXTURES / "tests" / "rpr106_trigger.py",
    "RPR107": FIXTURES / "src" / "repro" / "rpr107_trigger.py",
    "RPR108": FIXTURES / "src" / "repro" / "rpr108_trigger.py",
}

CLEAN_FIXTURES = {
    rule_id: path.with_name(path.name.replace("_trigger", "_clean"))
    for rule_id, path in RULE_FIXTURES.items()
}


class TestRuleCatalog:
    def test_every_builtin_rule_has_a_fixture_pair(self):
        assert set(all_rules()) == set(RULE_FIXTURES)
        for path in [*RULE_FIXTURES.values(), *CLEAN_FIXTURES.values()]:
            assert path.is_file(), path

    def test_rules_carry_id_title_and_docstring(self):
        for rule_id, rule in all_rules().items():
            assert rule.id == rule_id
            assert rule.title
            assert rule.__doc__ and rule_id in rule.__doc__

    def test_get_rule_unknown_id(self):
        with pytest.raises(AnalysisError):
            get_rule("RPR999")
        assert get_rule("RPR101").id == "RPR101"
        assert isinstance(AnalysisError("x"), ReproError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AnalysisError):

            @register
            class Clone(LintRule):
                id = "RPR101"
                title = "clone"

                def check(self, ctx):
                    return iter(())


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
class TestRuleFixtures:
    def test_trigger_fires_only_its_own_rule(self, rule_id):
        findings, suppressed = lint_file(RULE_FIXTURES[rule_id])
        assert findings, f"{rule_id} trigger produced no findings"
        assert {f.rule for f in findings} == {rule_id}
        assert suppressed == 0

    def test_clean_near_miss_is_silent_under_all_rules(self, rule_id):
        findings, suppressed = lint_file(CLEAN_FIXTURES[rule_id])
        assert findings == [], [f.describe() for f in findings]
        assert suppressed == 0


class TestScoping:
    def test_src_only_rules_ignore_test_modules(self, tmp_path):
        # The same RNG construction is a violation in src, fine in tests.
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        src_file = tmp_path / "src" / "repro" / "helper.py"
        test_file = tmp_path / "tests" / "test_helper.py"
        for path in (src_file, test_file):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        assert {f.rule for f in lint_file(src_file)[0]} == {"RPR101"}
        assert lint_file(test_file)[0] == []

    def test_module_name_for_anchors(self):
        assert module_name_for(Path("src/repro/obs/timing.py")) == "repro.obs.timing"
        assert module_name_for(Path("src/repro/analysis/__init__.py")) == "repro.analysis"
        assert module_name_for(Path("tests/core/test_schedule.py")) == "tests.core.test_schedule"
        assert module_name_for(Path("scripts/tool.py")) == "tool"
        # Fixture paths re-anchor on the *last* src/tests component.
        assert module_name_for(FIXTURES / "src" / "repro" / "x.py") == "repro.x"
        assert (
            module_name_for(FIXTURES / "tests" / "x.py") == "tests.x"
        )

    def test_float_eq_rule_exempts_call_wrapped_literals(self, tmp_path):
        path = tmp_path / "tests" / "test_float.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "def test_ok(approx):\n"
            "    assert 1.0 / 2 == approx(0.5)\n"
            "    assert abs(0.1) == approx(0.1, rel=1e-9)\n"
        )
        findings, _ = lint_file(path, rules=[get_rule("RPR106")])
        # The left side of the first compare holds a bare 1.0: flagged once.
        assert [f.line for f in findings] == [2]


class TestSuppressions:
    def test_line_and_file_level_pragmas(self):
        findings, suppressed = lint_file(FIXTURES / "src" / "repro" / "suppressed.py")
        assert findings == []
        assert suppressed == 3  # two RPR104 (file pragma) + one RPR102 (line)

    def test_wildcard_pragma(self, tmp_path):
        path = tmp_path / "src" / "repro" / "wild.py"
        path.parent.mkdir(parents=True)
        path.write_text("raise ValueError('x')  # repro: allow=*\n")
        findings, suppressed = lint_file(path)
        assert findings == [] and suppressed == 1

    def test_file_pragma_outside_window_is_inert(self, tmp_path):
        path = tmp_path / "src" / "repro" / "late.py"
        path.parent.mkdir(parents=True)
        path.write_text("\n" * 12 + "# repro: allow-file=RPR102\nraise ValueError('x')\n")
        findings, _ = lint_file(path)
        assert {f.rule for f in findings} == {"RPR102"}


class TestEngine:
    def test_run_lint_skips_fixture_directories(self):
        report = run_lint([FIXTURES.parent])  # tests/analysis/
        fixture_hits = [f for f in report.findings if "fixtures" in f.path]
        assert fixture_hits == []

    def test_run_lint_accepts_explicit_fixture_file(self):
        report = run_lint([RULE_FIXTURES["RPR102"]])
        assert not report.ok
        assert {f.rule for f in report.findings} == {"RPR102"}

    def test_parse_errors_fail_the_run(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = run_lint([tmp_path])
        assert report.parse_errors and not report.ok
        assert report.findings == []

    def test_missing_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            run_lint([tmp_path / "nope"])

    def test_report_describe_and_json(self):
        report = run_lint([RULE_FIXTURES["RPR105"]])
        assert "RPR105" in report.describe()
        blob = report.to_json()
        assert blob["files_checked"] == 1
        assert all(f["rule"] == "RPR105" for f in blob["findings"])

    def test_rule_subset_selection(self):
        report = run_lint(
            [RULE_FIXTURES["RPR105"], RULE_FIXTURES["RPR107"]],
            rules=[get_rule("RPR107")],
        )
        assert {f.rule for f in report.findings} == {"RPR107"}


class TestRepoIsClean:
    def test_src_and_tests_pass_the_linter(self):
        root = Path(__file__).parents[2]
        report = run_lint([root / "src", root / "tests"])
        assert report.ok, report.describe()
        assert report.files_checked > 100
        assert report.suppressed > 0  # the bit-exactness allows are counted
