"""The static schedule verifier: rule triggers, clean passes, report API."""

from __future__ import annotations

import pytest

from repro.analysis.schedule_check import (
    SCHEDULE_RULES,
    ScheduleReport,
    ScheduleViolation,
    check_schedule,
)
from repro.schedules import build_row_major_no_wrap, build_shearsort
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.core.schedule import FORWARD, REVERSE, LineOp, PairOp, Schedule, Step, WrapOp, lower
from repro.errors import ScheduleValidationError, UnsupportedMeshError


def rules_of(report: ScheduleReport) -> set[str]:
    return {v.rule for v in report.violations}


def snake(*steps: Step, name: str = "custom") -> Schedule:
    return Schedule(name=name, steps=tuple(steps), order="snake")


# A minimal well-formed snake cycle: all-parity column pairs with both
# offsets, plus parity-split row steps (odd forward, even reverse).
def snake_cycle() -> tuple[Step, ...]:
    return (
        Step(LineOp("col", 0, FORWARD)),
        Step(LineOp("col", 1, FORWARD)),
        Step(
            LineOp("row", 0, FORWARD, lines="odd"),
            LineOp("row", 0, REVERSE, lines="even"),
        ),
        Step(
            LineOp("row", 1, FORWARD, lines="odd"),
            LineOp("row", 1, REVERSE, lines="even"),
        ),
    )


class TestCleanSchedules:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @pytest.mark.parametrize("side", [4, 6, 8, 10])
    def test_paper_algorithms_are_clean(self, name, side):
        report = check_schedule(get_algorithm(name), side)
        assert report.ok, report.describe()
        assert report.oblivious
        assert report.depth == len(get_algorithm(name).steps)
        assert report.comparators_per_cycle > 0

    @pytest.mark.parametrize("side", [2, 4, 5, 7])
    def test_shearsort_baseline_is_clean(self, side):
        report = check_schedule(build_shearsort(side=side), side)
        assert report.ok, report.describe()

    @pytest.mark.parametrize("name", ["snake_1", "snake_2", "snake_3"])
    def test_snake_algorithms_clean_at_odd_sides(self, name):
        assert check_schedule(get_algorithm(name), 5).ok

    def test_custom_minimal_snake_is_clean(self):
        report = check_schedule(snake(*snake_cycle()), 4)
        assert report.ok, report.describe()


class TestStructuralRules:
    def test_sch001_overlapping_ops_in_a_step(self):
        # offset-0 pairs (0,1),(2,3); offset-1 pairs (1,2): cell (r,1) clashes.
        clash = Step(LineOp("row", 0, FORWARD, lines="odd"),
                     LineOp("row", 1, FORWARD, lines="odd"))
        report = check_schedule(snake(clash, *snake_cycle()), 4)
        assert "SCH001" in rules_of(report)
        assert report.structural and not report.oblivious
        assert report.structural[0].step == 1

    def test_sch001_row_and_column_ops_share_cells(self):
        both = Schedule(
            name="bad",
            steps=(Step(LineOp("row", 0, FORWARD), LineOp("col", 0, FORWARD)),),
            order="row_major",
        )
        report = check_schedule(both, 4)
        assert "SCH001" in rules_of(report)
        with pytest.raises(ScheduleValidationError):
            lower(both, 4, 4)

    def test_sch001_wrap_meets_even_row_step_only_at_odd_side(self):
        # At odd side the even row step reaches the last column, colliding
        # with the wrap op — the structural reason the paper needs 2n.
        conflicted = Schedule(
            name="conflict",
            steps=(Step(LineOp("row", 1, FORWARD), WrapOp()),),
            order="row_major",
        )
        assert check_schedule(conflicted, 6).structural == []
        report = check_schedule(conflicted, 5)
        assert rules_of(report) & {"SCH001", "SCH002"} == {"SCH001"}
        with pytest.raises(ScheduleValidationError):
            lower(conflicted, 5, 5)

    def test_sch002_small_mesh(self):
        report = check_schedule(snake(*snake_cycle()), 1)
        assert rules_of(report) == {"SCH002"}
        with pytest.raises(UnsupportedMeshError):
            lower(snake(*snake_cycle()), 1, 1)

    def test_sch002_odd_columns_for_even_side_schedule(self):
        schedule = get_algorithm("row_major_row_first")
        for rows, cols in [(5, 5), (6, 5)]:
            report = check_schedule(schedule, rows, cols)
            assert "SCH002" in rules_of(report)
        assert check_schedule(schedule, 5, 6).structural == []

    def test_sch002_wrap_pair_must_leave_the_last_column(self):
        steps = (Step(LineOp("col", 0, FORWARD)), Step(PairOp((0, 3), (1, 0))))
        schedule = Schedule(name="wrap-pair", steps=steps, order="row_major")
        assert check_schedule(schedule, 4).structural == []
        assert "SCH005" not in rules_of(check_schedule(schedule, 4))
        report = check_schedule(schedule, 4, 6)
        assert "SCH002" in rules_of(report)
        with pytest.raises(UnsupportedMeshError, match="column 5"):
            lower(schedule, 4, 6)

    def test_sch003_foreign_op_type(self):
        class RogueOp:
            pass

        step = Step(LineOp("col", 0, FORWARD))
        object.__setattr__(step, "ops", (RogueOp(),))
        report = check_schedule(snake(step, *snake_cycle()), 4)
        assert "SCH003" in rules_of(report)
        with pytest.raises(ScheduleValidationError):
            lower(snake(step, *snake_cycle()), 4, 4)

    def test_sch003_invalid_line_op_fields(self):
        bad = object.__new__(LineOp)
        for attr, value in [("axis", "diag"), ("offset", 0),
                            ("direction", 1), ("lines", "all")]:
            object.__setattr__(bad, attr, value)
        report = check_schedule(snake(Step(bad), *snake_cycle()), 4)
        assert "SCH003" in rules_of(report)
        with pytest.raises(ScheduleValidationError, match="invalid fields"):
            lower(snake(Step(bad), *snake_cycle()), 4, 4)


class TestPolicyRules:
    def test_sch004_wrap_outside_row_major(self):
        report = check_schedule(snake(Step(WrapOp()), *snake_cycle()), 4)
        assert "SCH004" in rules_of(report)
        assert report.oblivious  # policy violations keep obliviousness
        wrap_pair = Step(PairOp((1, 3), (2, 0)))
        assert "SCH004" in rules_of(check_schedule(snake(wrap_pair, *snake_cycle()), 4))

    def test_sch005_row_major_without_wrap(self):
        report = check_schedule(build_row_major_no_wrap(), 4)
        assert "SCH005" in rules_of(report)
        assert not report.structural  # still compilable

    def test_sch006_reverse_column_step(self):
        steps = (Step(LineOp("col", 0, REVERSE)),) + snake_cycle()[1:]
        assert "SCH006" in rules_of(check_schedule(snake(*steps), 4))

    def test_sch006_snake_parity_direction(self):
        flipped = Step(
            LineOp("row", 0, REVERSE, lines="odd"),  # odd rows must be forward
            LineOp("row", 0, REVERSE, lines="even"),
        )
        steps = snake_cycle()[:2] + (flipped,) + snake_cycle()[3:]
        assert "SCH006" in rules_of(check_schedule(snake(*steps), 4))

    def test_sch006_uniform_row_direction_in_snake(self):
        steps = snake_cycle()[:2] + (
            Step(LineOp("row", 0, FORWARD)),
            Step(LineOp("row", 1, FORWARD)),
        )
        assert "SCH006" in rules_of(check_schedule(snake(*steps), 4))

    def test_sch007_parity_op_without_partner(self):
        lonely = Step(LineOp("row", 0, FORWARD, lines="odd"))
        steps = snake_cycle()[:2] + (lonely,) + snake_cycle()[3:]
        assert "SCH007" in rules_of(check_schedule(snake(*steps), 4))

    def test_sch008_missing_offset_in_cycle(self):
        steps = (
            Step(LineOp("col", 0, FORWARD)),  # even column offset never appears
            snake_cycle()[2],
            snake_cycle()[3],
        )
        report = check_schedule(snake(*steps), 4)
        assert "SCH008" in rules_of(report)

    def test_sch008_waived_for_length_two_lines(self):
        steps = (
            Step(LineOp("col", 0, FORWARD)),
            Step(
                LineOp("row", 0, FORWARD, lines="odd"),
                LineOp("row", 0, REVERSE, lines="even"),
            ),
            Step(
                LineOp("row", 1, FORWARD, lines="odd"),
                LineOp("row", 1, REVERSE, lines="even"),
            ),
        )
        # On a 2-row mesh the even column transposition is empty by
        # construction, so its absence is not a violation.
        assert "SCH008" not in rules_of(check_schedule(snake(*steps), 2, 4))

    def test_sch009_axis_without_comparators(self):
        rows_only = snake(snake_cycle()[2], snake_cycle()[3])
        report = check_schedule(rows_only, 4)
        assert "SCH009" in rules_of(report)


class TestReportApi:
    def test_catalog_covers_every_emitted_rule(self):
        assert set(SCHEDULE_RULES) == {f"SCH00{i}" for i in range(1, 10)}
        for severity, summary in SCHEDULE_RULES.values():
            assert severity in ("structural", "policy") and summary

    def test_describe_and_json_round_trip(self):
        report = check_schedule(build_row_major_no_wrap(), 4)
        text = report.describe()
        assert "SCH005" in text and "oblivious=True" in text
        blob = report.to_json()
        assert blob["name"] == "row_major_no_wrap"
        assert blob["oblivious"] is True
        assert blob["violations"][0]["rule"] == "SCH005"

    def test_violation_describe_mentions_step(self):
        v = ScheduleViolation("SCH001", "structural", "boom", step=3)
        assert "(step 3)" in v.describe()
        assert "step" not in ScheduleViolation("SCH009", "policy", "x").describe()

    def test_lower_accepts_a_clean_schedule(self):
        report = check_schedule(get_algorithm("snake_1"), 4)
        _, _, off = lower(get_algorithm("snake_1"), 4, 4)
        assert report.ok and off[-1] == report.comparators_per_cycle


class TestPairOpParityCoverage:
    """SCH008/SCH009 see PairOp networks, not just LineOp cycles."""

    def test_coverage_patched_random_network_is_clean(self):
        from repro.schedules import build_random_network

        for seed in (0, 1, 7):
            schedule = build_random_network(side=4, seed=seed, steps=4)
            report = check_schedule(schedule, 1, 4)
            assert report.ok, report.describe()

    def test_patch_disabled_single_parity_draw_trips_sch008(self):
        from repro.schedules import build_random_network

        schedule = build_random_network(
            side=4, seed=1, steps=4, coverage_patch=False
        )
        report = check_schedule(schedule, 1, 4)
        assert rules_of(report) == {"SCH008"}, report.describe()
        # The certifier agrees with the lint: the uncovered parity class
        # leaves an adjacent inversion no comparator can ever fix.
        from repro.analysis.semantics import certify_sortedness

        cert = certify_sortedness(schedule, 1, 4)
        assert cert.refuted and cert.witness is not None

    def test_missing_axis_still_reported_for_pair_networks(self):
        from repro.core.schedule import PairOp

        # Vertical pairs only, on a genuinely 2-D mesh: the row axis has
        # no comparators anywhere in the cycle -> SCH009.
        schedule = Schedule(
            name="cols_only_pairs",
            steps=(
                Step(PairOp((0, 0), (1, 0)), PairOp((0, 1), (1, 1))),
                Step(PairOp((1, 0), (2, 0)), PairOp((1, 1), (2, 1))),
            ),
            order="row_major",
        )
        report = check_schedule(schedule, 3, 2)
        assert "SCH009" in rules_of(report), report.describe()
