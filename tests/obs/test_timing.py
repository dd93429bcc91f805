"""Stopwatch and duration helpers shared by the CLI and report writer."""

from __future__ import annotations

from repro.obs import StopWatch, format_seconds


class TestFormatSeconds:
    def test_ranges(self):
        assert format_seconds(0.034) == "0.034s"
        assert format_seconds(12.34) == "12.3s"
        assert format_seconds(221.0) == "3m41s"


class TestStopWatch:
    def test_elapsed_nonnegative_and_frozen_after_exit(self):
        with StopWatch() as watch:
            running = watch.elapsed
            assert running >= 0
        frozen = watch.elapsed
        assert frozen >= running
        assert watch.elapsed == frozen  # no longer ticking

    def test_str_is_formatted(self):
        with StopWatch() as watch:
            pass
        assert str(watch).endswith("s")


class TestSummaryTiming:
    def test_timing_block_has_one_row_per_run_then_total(self):
        """--summary's Timing block reads each run's own wall time."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.report import ExperimentRun, render_summary
        from repro.experiments.tables import Table

        table = Table("t", ["x"])
        runs = [
            ExperimentRun("E-T2", table, 1.5, []),
            ExperimentRun("E-C1", table, 0.034, []),
        ]
        text = render_summary(runs, ExperimentConfig())
        block = text.split("## Timing\n\n```\n")[1].split("\n```")[0]
        assert block.splitlines() == [
            "E-T2       1.5s",
            "E-C1     0.034s",
            "total      1.5s",
        ]
