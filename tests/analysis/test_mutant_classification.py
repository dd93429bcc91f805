"""Acceptance: the static verifier flags every structural mutant, executor-free.

The ISSUE's core property: for all five paper algorithms, every
``drop-op``/``flip-direction``/``flip-offset`` mutant from
:func:`repro.verify.mutations.all_mutants` is *statically* detectable —
without executing a single sort step — while ``swap-steps`` mutants are
well-formed schedules that merely sort wrong (semantic-only).
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.analysis.schedule_check import check_schedule
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.verify.mutations import (
    all_mutants,
    classify_mutants,
    classify_mutants_semantic,
)

STATIC_FAMILIES = ("drop-op", "flip-direction", "flip-offset")


def side_for(name: str) -> int:
    return 6 if get_algorithm(name).requires_even_side else 5


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_structural_mutant_is_statically_detected(name):
    schedule = get_algorithm(name)
    triples = classify_mutants(schedule, side_for(name))
    assert len(triples) == len(all_mutants(schedule))
    by_family: dict[str, set[str]] = {}
    for label, _, kind in triples:
        by_family.setdefault(label.split("@")[0], set()).add(kind)
    for family in STATIC_FAMILIES:
        if family in by_family:
            assert by_family[family] == {"static"}, (name, family, by_family)
    assert by_family["swap-steps"] == {"semantic"}, (name, by_family)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_static_detection_holds_at_every_budget_side(name):
    schedule = get_algorithm(name)
    sides = (4, 6, 8) if schedule.requires_even_side else (4, 5, 6, 8)
    for side in sides:
        for label, mutant, kind in classify_mutants(schedule, side):
            expected = "semantic" if label.startswith("swap-steps") else "static"
            assert kind == expected, (name, side, label)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_genuine_schedule_is_never_misclassified(name):
    # The classifier must not cry wolf: the unmutated schedule is clean.
    assert check_schedule(get_algorithm(name), side_for(name)).ok


EXECUTOR_PREFIXES = (
    "repro.backends",
    "repro.core.reference",
    "repro.mesh",
)


def test_analysis_package_never_imports_an_executor():
    """Static import-graph check: detection is a pure function of the IR.

    ``import repro`` itself loads the facade (executors included), so the
    meaningful property is that no module *inside* ``repro.analysis``
    imports one — the verifier would work even if the executors were
    deleted.
    """
    import ast
    from pathlib import Path

    import repro.analysis

    package_dir = Path(repro.analysis.__file__).parent
    offenders = []
    for path in sorted(package_dir.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            for name in names:
                if name.startswith(EXECUTOR_PREFIXES):
                    offenders.append(f"{path.name}: {name}")
    assert not offenders, offenders


def test_classification_adds_no_executor_imports():
    """Process-level check: the classifier itself loads no new executor
    modules beyond what the ``repro`` facade already pulled in."""
    code = (
        "import sys, repro\n"
        "before = {m for m in sys.modules if m.startswith('repro')}\n"
        "from repro.analysis.schedule_check import check_schedule\n"
        "from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm\n"
        "for name in ALGORITHM_NAMES:\n"
        "    side = 6 if get_algorithm(name).requires_even_side else 5\n"
        "    assert check_schedule(get_algorithm(name), side).ok\n"
        f"new = [m for m in sys.modules if m.startswith({EXECUTOR_PREFIXES!r})\n"
        "       and m not in before]\n"
        "assert not new, f'classifier loaded executors: {new}'\n"
        "print('EXECUTOR-FREE')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "EXECUTOR-FREE" in result.stdout


class TestSemanticReclassification:
    """The certifier splits the old "semantic" bucket three ways."""

    def test_shift_pair_mutant_moves_from_semantic_to_statically_refuted(self):
        # Acceptance: a mutant the legacy classifier waves through with
        # *zero* schedule-check violations is proven broken statically.
        from repro.schedules import build_schedule

        schedule = build_schedule("random_network[side=4,steps=6]", seed=0)
        legacy = {label: kind for label, _, kind in classify_mutants(schedule, 1, 4)}
        semantic_labels = {label for label, kind in legacy.items() if kind == "semantic"}
        refuted = {
            label: cert
            for label, _, kind, cert in classify_mutants_semantic(schedule, 1, 4)
            if kind == "statically-refuted"
        }
        promoted = semantic_labels & set(refuted)
        assert promoted, (legacy, sorted(refuted))
        for label in promoted:
            cert = refuted[label]
            assert cert.refuted and cert.witness is not None
            assert not check_schedule(
                [m for lbl, m in all_mutants(schedule) if lbl == label][0], 1, 4
            ).violations

    def test_swap_steps_mutants_of_paper_algorithms_stay_semantic_only(self):
        # Cyclic repetition with full coverage still sorts after a step
        # swap, so the certifier must NOT refute these (they are the
        # residue the dynamic differential suite exists for).
        quads = classify_mutants_semantic(get_algorithm("snake_1"), 4)
        kinds = {label: kind for label, _, kind, _ in quads}
        swaps = {k: v for k, v in kinds.items() if k.startswith("swap-steps")}
        assert swaps and set(swaps.values()) == {"semantic-only"}, kinds
        assert "statically-refuted" in set(kinds.values()), kinds

    def test_structural_mutants_carry_no_certificate(self):
        quads = classify_mutants_semantic(get_algorithm("snake_1"), 4)
        for label, _, kind, cert in quads:
            if kind == "structural":
                assert cert is None, label
            else:
                assert cert is not None, label

    def test_refuted_witnesses_feed_the_corpus_and_replay_clean(self, tmp_path):
        from repro.verify import load_corpus, replay_reproducer

        classify_mutants_semantic(get_algorithm("snake_1"), 4, corpus_dir=tmp_path)
        corpus = load_corpus(tmp_path)
        assert corpus, "no witness reached the corpus"
        for rep in corpus:
            assert rep.prop == "differential"
            assert rep.algorithm == "snake_1"
            assert "semantics certifier" in rep.source
            # Corpus contract: replaying against the *genuine* algorithm
            # must pass — the witness only defeats the mutant.
            assert replay_reproducer(rep) == [], rep.source

    def test_legacy_classifier_is_unchanged(self):
        schedule = get_algorithm("snake_1")
        kinds = {kind for _, _, kind in classify_mutants(schedule, 4)}
        assert kinds == {"static", "semantic"}
