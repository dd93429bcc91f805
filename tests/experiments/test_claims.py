"""The paper's claims as machine-checked verdicts.

Every claim declared in the experiment registry must not be VIOLATED at
quick scale and the default seed — the configuration ``repro run --all``
and the CI scorecard use.  The evaluator itself is checked on synthetic
tables: INCONCLUSIVE sizing, ``numpy.bool_`` verdict cells, and verdicts
that do not depend on column order.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from repro.experiments import montecarlo
from repro.experiments.claims import (
    Verdict,
    each_row,
    evaluate_claims,
    lower_bound,
    tail_bound,
    zero_violations,
)
from repro.experiments.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.tables import Table


@functools.lru_cache(maxsize=None)
def _quick_table(exp_id: str) -> Table:
    return run_experiment(exp_id, ExperimentConfig(scale="quick"))


_DECLARED = [
    (exp_id, index)
    for exp_id, spec in EXPERIMENTS.items()
    for index in range(len(spec.claims))
]


@pytest.mark.parametrize(
    "exp_id,index",
    _DECLARED,
    ids=[f"{e}:{EXPERIMENTS[e].claims[i].label}" for e, i in _DECLARED],
)
def test_declared_claim_not_violated_at_quick_scale(exp_id, index):
    claim = EXPERIMENTS[exp_id].claims[index]
    (result,) = evaluate_claims([claim], _quick_table(exp_id))
    assert result.verdict is not Verdict.VIOLATED, result


def test_only_infrastructure_tables_declare_no_claim():
    assert [e for e, spec in EXPERIMENTS.items() if not spec.claims] == ["E-CAMP"]


def test_column_order_does_not_change_verdicts():
    """No claim reads a cell by position: reversing every table's columns
    gives the same verdicts and margins."""
    for exp_id, spec in EXPERIMENTS.items():
        table = _quick_table(exp_id)
        reversed_table = Table(
            title=table.title,
            headers=table.headers[::-1],
            rows=[row[::-1] for row in table.rows],
        )
        assert evaluate_claims(spec.claims, reversed_table) == evaluate_claims(
            spec.claims, table
        ), exp_id


def _mean_table(*rows):
    table = Table("synthetic", ["trials", "mean", "ci95 half", "bound"])
    for row in rows:
        table.add_row(*row)
    return table


class TestLowerBound:
    claim = lower_bound("Theorem X", value="mean", bound="bound", ci="ci95 half")

    def test_bound_inside_ci_is_inconclusive_with_trials_needed(self):
        # |mean - bound| = 0.5, ci = 2.0: 64 * (2 / 0.5)**2 = 1024 trials.
        (result,) = evaluate_claims([self.claim], _mean_table((64, 10.5, 2.0, 10.0)))
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.margin == pytest.approx(0.5)
        assert "1024 trials" in result.detail

    def test_whole_ci_below_bound_is_violated(self):
        table = _mean_table((64, 20.0, 1.0, 10.0), (64, 7.0, 2.0, 10.0))
        (result,) = evaluate_claims([self.claim], table)
        assert result.verdict is Verdict.VIOLATED
        assert result.margin == pytest.approx(-3.0)
        assert "1 of 2 rows" in result.detail

    def test_whole_ci_above_bound_holds(self):
        (result,) = evaluate_claims([self.claim], _mean_table((64, 13.0, 2.0, 10.0)))
        assert result.verdict is Verdict.HOLDS
        assert result.margin == pytest.approx(3.0)

    def test_inconclusive_without_trials_column_sizes_by_multiple(self):
        table = Table("synthetic", ["mean", "ci95 half", "bound"])
        table.add_row(10.5, 2.0, 10.0)
        (result,) = evaluate_claims([self.claim], table)
        assert result.verdict is Verdict.INCONCLUSIVE
        assert "16.0x its trials" in result.detail

    def test_verdict_column_decides_pass_or_fail(self):
        """With a verdict column the table's own test decides, so the
        scorecard never disagrees with the printed yes/no."""
        claim = lower_bound("Theorem X", value="mean", bound="bound", verdict="holds")
        table = Table("synthetic", ["mean", "bound", "holds"])
        table.add_row(9.0, 10.0, True)
        (accepted,) = evaluate_claims([claim], table)
        table.rows[0][2] = False
        (rejected,) = evaluate_claims([claim], table)
        assert accepted.verdict is Verdict.HOLDS
        assert rejected.verdict is Verdict.VIOLATED
        assert accepted.margin == rejected.margin == pytest.approx(-1.0)

    def test_claim_matching_no_rows_is_violated(self):
        claim = dataclasses.replace(self.claim, where=lambda row: False)
        (result,) = evaluate_claims([claim], _mean_table((64, 13.0, 2.0, 10.0)))
        assert result.verdict is Verdict.VIOLATED


@pytest.mark.parametrize("cell,verdict", [
    (np.bool_(True), Verdict.HOLDS),
    (np.bool_(False), Verdict.VIOLATED),
])
def test_numpy_bool_verdict_cells_evaluate_as_booleans(cell, verdict):
    """E-TAILS and E-CONST store ``numpy.bool_`` cells (rendered True/False)."""
    tails = Table("tails", ["empirical", "chebyshev bound", "consistent"])
    tails.add_row(0.0, 0.5, cell)
    const = Table("const", ["c above bound"])
    const.add_row(cell)
    (tail,) = evaluate_claims(
        [tail_bound("T", bound="chebyshev bound", verdict="consistent")], tails
    )
    (shape,) = evaluate_claims(
        [zero_violations("C", "c above bound", each_row(lambda r: r["c above bound"]))],
        const,
    )
    assert tail.verdict is verdict and shape.verdict is verdict


def test_real_numpy_bool_tables_hold():
    for exp_id in ("E-TAILS", "E-CONST"):
        table = _quick_table(exp_id)
        assert any(isinstance(cell, np.bool_) for row in table.rows for cell in row)
        results = evaluate_claims(EXPERIMENTS[exp_id].claims, table)
        assert all(r.verdict is Verdict.HOLDS for r in results), exp_id


def test_halved_step_counts_violate_theorems_7_and_12(monkeypatch, capsys):
    """A sampler reporting half the real step counts must be caught by the
    claims it breaks, and only by those."""
    real_run_sort = montecarlo.run_sort

    def halved(*args, **kwargs):
        outcome = real_run_sort(*args, **kwargs)
        return dataclasses.replace(outcome, steps=outcome.steps // 2)

    monkeypatch.setattr(montecarlo, "run_sort", halved)
    assert main(["E-T2", "E-T7", "E-T12-avg"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATED     E-T7 Theorem 7" in out
    assert "VIOLATED     E-T12-avg Theorem 12" in out
    assert "HOLDS        E-T2 Theorem 2" in out
