"""Uniform random adjacent-comparator sorting networks (seeded family).

The model: a sequence of comparators on a linear array, each drawn
independently and uniformly from its ``n - 1`` adjacent positions, with
a coverage patch (below).  It is *not* the random sorting network of
Angel–Holroyd–Romik–Virág, which is a uniformly random reduced word of
the reversal ``n ... 2 1`` (a shortest path in the bubble-sort Cayley
graph of ``S_n``): every comparator of such a word swaps on the reversed
input, and the word has exactly ``n(n-1)/2`` of them, while an i.i.d.
draw repeats positions freely.  This module packages the i.i.d. model as
a registry family — the first genuinely *generated* family in the repo:

* **sided and seedable** — an instance is identified by
  ``(side, steps, seed)`` and named in canonical spec syntax,
  ``random_network[seed=7,side=16,steps=64]``, so the seed and parameters
  flow into the compile cache key and every campaign fingerprint for free;
* **frozen and hashable** — the builder is a pure function of its
  parameters (own ``SeedSequence``, no global RNG), so rebuilding the same
  spec anywhere (coordinator, worker, another machine) yields an identical
  schedule;
* each schedule step fires exactly **one** :class:`~repro.core.schedule.PairOp`
  comparator, matching the model's one-comparator-per-time-unit clock.

A uniformly drawn prefix need not contain every adjacent position, and a
cyclic repetition of a network that never compares, say, positions (3, 4)
can obviously never sort.  The builder therefore *patches coverage*: any
adjacent position absent from the ``steps`` random draws is appended (in
ascending order) at the end of the cycle.  With every position covered, a
full cycle pass over an unsorted array always removes at least one
inversion — an adjacent pair out of order gets compared and swapped — so
cyclic repetition sorts within ``inversions_max + 1`` cycles.  That bound,
``cycle_len * (n * (n - 1) / 2 + 1)`` steps, is stored as the schedule's
``step_cap_hint`` metadata and honoured by
:func:`repro.core.schedule.resolve_step_cap` (hints can only loosen the
paper-calibrated cap, never tighten it).
"""

from __future__ import annotations

from repro.core.schedule import PairOp, Schedule, Step
from repro.errors import DimensionError
from repro.randomness import as_generator, as_seed_sequence
from repro.schedules.registry import ScheduleFamily, spec_name

__all__ = ["build_random_network", "RANDOM_NETWORK_FAMILIES"]


def build_random_network(
    *, side: int, seed: int, steps: int | None = None,
    coverage_patch: bool = True,
) -> Schedule:
    """Draw one random sorting network on a linear array of ``side`` cells.

    Parameters
    ----------
    side:
        Array length ``n`` (the ``1 × n`` mesh); must be >= 2.
    seed:
        Generator seed; part of the instance identity.
    steps:
        Number of uniform comparator draws; defaults to ``2 * n**2``
        (comfortably above the Θ(n²) comparators a fixed network needs).
        Coverage patching may append up to ``n - 2`` further comparators.
    coverage_patch:
        Test hook, deliberately *not* a registry parameter: ``False``
        skips the coverage patch, yielding the raw (possibly non-sorting)
        draw so the analysis suite can demonstrate what SCH008 and the
        sortedness certifier catch when the patch is missing.
    """
    n = int(side)
    if n < 2:
        raise DimensionError(f"random_network needs side >= 2, got {side}")
    length = 2 * n * n if steps is None else int(steps)
    if length < 1:
        raise DimensionError(f"random_network needs steps >= 1, got {steps}")

    rng = as_generator(as_seed_sequence((int(seed), n, length)))
    positions = [int(p) for p in rng.integers(0, n - 1, size=length)]
    if coverage_patch:
        # Coverage patch: append any adjacent position the draws missed, so
        # a full cycle always makes progress on an unsorted array (see
        # module docstring for the termination argument).
        positions.extend(sorted(set(range(n - 1)) - set(positions)))

    schedule_steps = tuple(
        Step(PairOp((0, p), (0, p + 1))) for p in positions
    )
    cycle_len = len(schedule_steps)
    step_cap_hint = cycle_len * (n * (n - 1) // 2 + 1)
    return Schedule(
        name=spec_name("random_network", side=n, steps=length, seed=int(seed)),
        steps=schedule_steps,
        order="row_major",
        metadata={
            "family": "random_network",
            "topology": "linear",
            "side": n,
            "seed": int(seed),
            "params": {"side": n, "steps": length, "seed": int(seed)},
            "step_cap_hint": step_cap_hint,
        },
    )


RANDOM_NETWORK_FAMILIES: tuple[ScheduleFamily, ...] = (
    ScheduleFamily(
        name="random_network",
        builder=build_random_network,
        topology="linear",
        sided=True,
        seedable=True,
        default_params={"steps": None},
        description=(
            "i.i.d. uniform adjacent-comparator network on a linear array "
            "(coverage-patched)"
        ),
    ),
)
