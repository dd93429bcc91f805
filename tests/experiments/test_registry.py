"""Smoke tests: every registered experiment runs and reproduces its claim.

These use a reduced configuration (the smallest even/odd sides, few trials)
so the whole registry executes in seconds; the benchmark harness runs the
real quick/full scales.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.errors import DimensionError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.tables import Table


@dataclasses.dataclass
class TinyConfig(ExperimentConfig):
    """A stripped-down config for test runs."""

    @property
    def even_sides(self):
        return [6]

    @property
    def odd_sides(self):
        return [5]

    @property
    def trials(self):
        return 16

    @property
    def moment_trials(self):
        return 400

    @property
    def invariant_trials(self):
        return 3

    @property
    def linear_sizes(self):
        return [32]


@pytest.fixture(scope="module")
def tiny_cfg():
    return TinyConfig()


class TestRegistry:
    def test_ids_unique_and_nonempty(self):
        ids = experiment_ids()
        assert len(ids) == len(set(ids))
        assert len(ids) >= 15

    def test_unknown_id(self):
        with pytest.raises(DimensionError):
            run_experiment("E-NOPE")

    def test_default_config_used(self):
        # only checks dispatch; cheap experiment
        table = run_experiment("E-C1", TinyConfig())
        assert isinstance(table, Table)


@pytest.mark.parametrize("exp_id", experiment_ids())
def test_experiment_runs_and_has_rows(exp_id, tiny_cfg):
    table = EXPERIMENTS[exp_id].run(tiny_cfg)
    assert isinstance(table, Table)
    assert table.rows, f"{exp_id} produced no rows"
    assert table.to_text()


class TestClaimsHold:
    """The boolean 'claim holds' columns must be all-yes at tiny scale too."""

    @pytest.mark.parametrize("exp_id", ["E-T2", "E-T4", "E-T7", "E-T10", "E-T12-avg"])
    def test_average_case_bounds_hold(self, exp_id, tiny_cfg):
        table = EXPERIMENTS[exp_id].run(tiny_cfg)
        holds = [row[-1] for row in table.rows]
        assert all(holds)

    def test_corollary1_holds(self, tiny_cfg):
        table = EXPERIMENTS["E-C1"].run(tiny_cfg)
        assert all(row[-1] for row in table.rows)

    def test_invariants_zero_violations(self, tiny_cfg):
        table = EXPERIMENTS["E-L123"].run(tiny_cfg)
        assert all(row[-1] == 0 for row in table.rows)

    def test_potential_bounds_zero_violations(self, tiny_cfg):
        table = EXPERIMENTS["E-T1"].run(tiny_cfg)
        assert all(row[-1] == 0 for row in table.rows)

    def test_tails_consistent(self, tiny_cfg):
        table = EXPERIMENTS["E-TAILS"].run(tiny_cfg)
        assert all(row[-1] for row in table.rows)

    def test_no_wrap_never_sorts(self, tiny_cfg):
        table = EXPERIMENTS["E-NOWRAP"].run(tiny_cfg)
        assert all(row[2] is False or row[2] == False for row in table.rows)  # noqa: E712


class TestDeterminism:
    """Same config -> byte-identical tables (seeded Monte Carlo)."""

    @pytest.mark.parametrize("exp_id", ["E-T2", "E-C1", "E-DECAY"])
    def test_repeat_runs_identical(self, exp_id, tiny_cfg):
        a = EXPERIMENTS[exp_id].run(tiny_cfg).to_text()
        b = EXPERIMENTS[exp_id].run(tiny_cfg).to_text()
        assert a == b

    def test_fault_table_pinned(self):
        """E-FAULT's seeded failure stream and dead-wire run, pinned by the
        blake2b-8 digest of the quick-scale table at the default seed."""
        text = run_experiment(
            "E-FAULT", ExperimentConfig(scale="quick", seed=20260706)
        ).to_text()
        assert hashlib.blake2b(text.encode(), digest_size=8).hexdigest() == "3573aa129e380e73"


def test_tails_cross_process_deterministic(tmp_path):
    """E-TAILS must not depend on Python's per-process hash salt."""
    import subprocess
    import sys

    script = (
        "from repro.experiments import ExperimentConfig\n"
        "from repro.experiments.registry import run_experiment\n"
        "print(run_experiment('E-TAILS', ExperimentConfig()).rows[0])\n"
    )
    outputs = set()
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr[-500:]
        outputs.add(result.stdout)
    assert len(outputs) == 1
