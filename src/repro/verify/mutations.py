"""Schedule mutations: deliberately broken algorithms for harness self-test.

A verification harness that has never caught a bug proves nothing.  These
operators produce *minimally* wrong variants of a schedule — one dropped
op, one flipped comparator direction, one swapped step pair — modelled on
the transcription mistakes that are actually easy to make when copying the
paper's step lists.  The test suite injects them and asserts the
differential and metamorphic suites flag every mutant; the shrinker demo
minimizes one mutant's failure into the committed corpus.

Mutants keep the original registry ``name`` on purpose: a transcription
bug would too, and the phase-keyed lemma checks must fire against the
mutant exactly as they would against the genuine article.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.schedule import LineOp, PairOp, Schedule, Step
from repro.errors import DimensionError

if TYPE_CHECKING:
    from repro.analysis.semantics import SortednessCertificate

__all__ = [
    "MUTATIONS",
    "mutate_schedule",
    "all_mutants",
    "classify_mutants",
    "classify_mutants_semantic",
]


def _drop_op(schedule: Schedule, step_index: int) -> Schedule:
    """Remove the last op of one step (e.g. forget the wrap-around)."""
    steps = list(schedule.steps)
    ops = steps[step_index].ops
    if len(ops) == 1:
        raise DimensionError(
            f"step {step_index + 1} has a single op; dropping it would empty the step"
        )
    steps[step_index] = Step(*ops[:-1])
    return replace(schedule, steps=tuple(steps))


def _flip_direction(schedule: Schedule, step_index: int) -> Schedule:
    """Reverse the comparator direction of one step's first line op."""
    steps = list(schedule.steps)
    ops = list(steps[step_index].ops)
    for i, op in enumerate(ops):
        if isinstance(op, LineOp):
            ops[i] = replace(op, direction=-op.direction)
            steps[step_index] = Step(*ops)
            return replace(schedule, steps=tuple(steps))
    raise DimensionError(f"step {step_index + 1} has no line op to flip")


def _flip_offset(schedule: Schedule, step_index: int) -> Schedule:
    """Turn an odd transposition step into an even one (or vice versa)."""
    steps = list(schedule.steps)
    ops = list(steps[step_index].ops)
    for i, op in enumerate(ops):
        if isinstance(op, LineOp):
            ops[i] = replace(op, offset=1 - op.offset)
            steps[step_index] = Step(*ops)
            return replace(schedule, steps=tuple(steps))
    raise DimensionError(f"step {step_index + 1} has no line op to re-offset")


def _swap_steps(schedule: Schedule, step_index: int) -> Schedule:
    """Exchange a step with its successor (cyclic order transcription slip)."""
    steps = list(schedule.steps)
    j = (step_index + 1) % len(steps)
    steps[step_index], steps[j] = steps[j], steps[step_index]
    return replace(schedule, steps=tuple(steps))


def _shift_pair(schedule: Schedule, step_index: int) -> Schedule:
    """Slide a step's first pair comparator one cell toward the origin.

    The classic off-by-one transcription slip for generated adjacent
    networks: ``(p, p+1)`` copied as ``(p-1, p)``.  The mutant is still a
    perfectly well-formed adjacent comparator, so the shape rules cannot
    object — but the comparator sequence no longer covers what the
    generator proved it covers, which is exactly the kind of bug only the
    0-1 sortedness certifier (or a dynamic run) can catch.
    """
    steps = list(schedule.steps)
    ops = list(steps[step_index].ops)
    for i, op in enumerate(ops):
        if not isinstance(op, PairOp):
            continue
        (low_r, low_c), (high_r, high_c) = op.low, op.high
        if low_r == high_r and low_c > 0:
            ops[i] = PairOp((low_r, low_c - 1), (high_r, high_c - 1))
        elif low_c == high_c and low_r > 0:
            ops[i] = PairOp((low_r - 1, low_c), (high_r - 1, high_c))
        else:
            continue
        steps[step_index] = Step(*ops)
        return replace(schedule, steps=tuple(steps))
    raise DimensionError(
        f"step {step_index + 1} has no pair op that can shift toward the origin"
    )


MUTATIONS = {
    "drop-op": _drop_op,
    "flip-direction": _flip_direction,
    "flip-offset": _flip_offset,
    "swap-steps": _swap_steps,
    "shift-pair": _shift_pair,
}


def mutate_schedule(schedule: Schedule, mutation: str, step_index: int = 0) -> Schedule:
    """Apply one named mutation to ``schedule`` at ``step_index`` (0-based)."""
    if mutation not in MUTATIONS:
        raise DimensionError(
            f"unknown mutation {mutation!r}; known: {', '.join(MUTATIONS)}"
        )
    if not 0 <= step_index < len(schedule.steps):
        raise DimensionError(
            f"step_index {step_index} out of range for {len(schedule.steps)} steps"
        )
    return MUTATIONS[mutation](schedule, step_index)


def all_mutants(schedule: Schedule) -> list[tuple[str, Schedule]]:
    """Every applicable ``(label, mutant)`` of ``schedule``.

    Mutations that do not apply at a given step (e.g. dropping the only op)
    are skipped; mutants identical to the original (a symmetric step swap)
    are filtered out.
    """
    mutants: list[tuple[str, Schedule]] = []
    for name in MUTATIONS:
        for index in range(len(schedule.steps)):
            try:
                mutant = mutate_schedule(schedule, name, index)
            except DimensionError:
                continue
            if mutant.steps == schedule.steps:
                continue
            mutants.append((f"{name}@{index + 1}", mutant))
    return mutants


def classify_mutants(
    schedule: Schedule, rows: int, cols: int | None = None
) -> list[tuple[str, Schedule, str]]:
    """Triage every mutant of ``schedule`` with the static verifier.

    Returns ``(label, mutant, kind)`` triples where ``kind`` is

    * ``"static"`` — the mutant violates the schedule shape rules of
      :mod:`repro.analysis.schedule_check` and is caught *without executing
      a single comparator* (dropped wraps, flipped directions/offsets);
    * ``"semantic"`` — the mutant is a perfectly well-formed schedule that
      merely sorts wrong (step-order swaps); only the differential and
      metamorphic suites can catch it.

    The division tells the harness self-test what each layer must prove:
    the dynamic suites are only *required* for the semantic residue.
    """
    from repro.analysis.schedule_check import check_schedule

    out: list[tuple[str, Schedule, str]] = []
    for label, mutant in all_mutants(schedule):
        report = check_schedule(mutant, rows, cols)
        out.append((label, mutant, "static" if report.violations else "semantic"))
    return out


def classify_mutants_semantic(
    schedule: Schedule,
    rows: int,
    cols: int | None = None,
    *,
    corpus_dir: str | Path | None = None,
) -> list[tuple[str, Schedule, str, "SortednessCertificate | None"]]:
    """Triage every mutant with the full static stack, certifier included.

    Refines :func:`classify_mutants` (which stays as the cheap two-way
    split) into ``(label, mutant, kind, certificate)`` where ``kind`` is

    * ``"structural"`` — the shape rules of
      :mod:`repro.analysis.schedule_check` reject the mutant outright; no
      certificate is attempted (``certificate`` is ``None`` when the
      0-1 reduction does not even apply);
    * ``"statically-refuted"`` — well-formed and oblivious, but the
      0-1 certifier *proves* it never sorts and carries a minimal 0-1
      counterexample in ``certificate.witness``;
    * ``"semantic-only"`` — everything static passes (the certificate is
      CERTIFIED or UNKNOWN); only the dynamic differential/metamorphic
      suites can catch it, so that is the residue they must cover.

    With ``corpus_dir``, each square statically-refuted witness is saved
    as a ``differential`` reproducer under the *parent* schedule's name:
    replaying it runs the genuine algorithm, which must sort the witness
    — a permanent regression input born from a static refutation.
    """
    from repro.analysis.schedule_check import check_schedule
    from repro.analysis.semantics import certify_sortedness

    out: list[tuple[str, Schedule, str, "SortednessCertificate | None"]] = []
    for label, mutant in all_mutants(schedule):
        report = check_schedule(mutant, rows, cols)
        if report.structural:
            out.append((label, mutant, "structural", None))
            continue
        cert = certify_sortedness(mutant, report.rows, report.cols)
        if cert.refuted:
            if corpus_dir is not None and cert.witness is not None:
                if report.rows == report.cols:
                    from repro.verify.corpus import Reproducer, save_reproducer

                    save_reproducer(
                        corpus_dir,
                        Reproducer(
                            prop="differential",
                            algorithm=schedule.name,
                            grid=[list(row) for row in cert.witness],
                            detail=(
                                f"0-1 witness on which mutant {label} of "
                                f"{schedule.name!r} never sorts"
                            ),
                            source=(
                                f"static 0-1 refutation of {label} "
                                f"(semantics certifier)"
                            ),
                        ),
                    )
            out.append((label, mutant, "statically-refuted", cert))
        else:
            out.append((label, mutant, "semantic-only", cert))
    return out
