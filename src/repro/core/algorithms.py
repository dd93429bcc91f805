"""The five two-dimensional bubble sorting algorithms of the paper.

Each builder returns a :class:`~repro.core.schedule.Schedule` whose four-step
cycle transcribes the paper's step lists verbatim (Section 1).  The registry
maps stable names to builders:

======================== =============================== ==================
name                     paper description               target order
======================== =============================== ==================
``row_major_row_first``  first row-major algorithm       row-major (+wrap)
``row_major_col_first``  second row-major algorithm      row-major (+wrap)
``snake_1``              first snakelike algorithm       snakelike
``snake_2``              second snakelike algorithm      snakelike
``snake_3``              third snakelike algorithm       snakelike
======================== =============================== ==================

The row-major algorithms require an even mesh side (``sqrt(N) = 2n``);
:func:`repro.core.schedule.lower` refuses an odd side, so every executor
does, and :func:`repro.analysis.schedule_check.check_schedule` reports it
as a structural violation.
"""

from __future__ import annotations

from typing import Callable

from repro.core.phases import (
    col_even_bubble,
    col_odd_bubble,
    row_even_bubble,
    row_even_reverse,
    row_odd_bubble,
    row_odd_reverse,
    wraparound,
)
from repro.core.schedule import Schedule, Step
from repro.errors import UnsupportedMeshError

__all__ = [
    "row_major_row_first",
    "row_major_col_first",
    "snake_1",
    "snake_2",
    "snake_3",
    "ALGORITHMS",
    "ALGORITHM_NAMES",
    "ROW_MAJOR_NAMES",
    "SNAKE_NAMES",
    "get_algorithm",
]


def row_major_row_first() -> Schedule:
    """First row-major algorithm (begins with a row sort).

    Cycle (paper steps 4i+1 .. 4i+4):

    1. each row: odd bubble step;
    2. each column: odd bubble step (smaller on top);
    3. each row: even bubble step, *plus* the wrap-around comparisons
       between the rightmost and leftmost columns;
    4. each column: even bubble step.
    """
    return Schedule(
        name="row_major_row_first",
        steps=(
            Step(row_odd_bubble()),
            Step(col_odd_bubble()),
            Step(row_even_bubble(), wraparound()),
            Step(col_even_bubble()),
        ),
        order="row_major",
        requires_even_side=True,
    )


def row_major_col_first() -> Schedule:
    """Second row-major algorithm (begins with a column sort).

    Steps ``2i+1`` and ``2i+2`` are steps ``2i+2`` and ``2i+1`` of
    :func:`row_major_row_first`, i.e. the row/column pairs swap places:
    column-odd, row-odd, column-even, row-even + wrap-around.
    """
    return Schedule(
        name="row_major_col_first",
        steps=(
            Step(col_odd_bubble()),
            Step(row_odd_bubble()),
            Step(col_even_bubble()),
            Step(row_even_bubble(), wraparound()),
        ),
        order="row_major",
        requires_even_side=True,
    )


def snake_1() -> Schedule:
    """First snakelike algorithm.

    1. odd rows: odd bubble step; even rows: even reverse-bubble step;
    2. each column: odd bubble step;
    3. odd rows: even bubble step; even rows: odd reverse-bubble step;
    4. each column: even bubble step.
    """
    return Schedule(
        name="snake_1",
        steps=(
            Step(row_odd_bubble("odd"), row_even_reverse("even")),
            Step(col_odd_bubble()),
            Step(row_even_bubble("odd"), row_odd_reverse("even")),
            Step(col_even_bubble()),
        ),
        order="snake",
    )


def snake_2() -> Schedule:
    """Second snakelike algorithm: odd steps of :func:`snake_1`, but the
    column steps split by column parity.

    2. odd columns: odd bubble step; even columns: even bubble step;
    4. odd columns: even bubble step; even columns: odd bubble step.
    """
    return Schedule(
        name="snake_2",
        steps=(
            Step(row_odd_bubble("odd"), row_even_reverse("even")),
            Step(col_odd_bubble("odd"), col_even_bubble("even")),
            Step(row_even_bubble("odd"), row_odd_reverse("even")),
            Step(col_even_bubble("odd"), col_odd_bubble("even")),
        ),
        order="snake",
    )


def snake_3() -> Schedule:
    """Third snakelike algorithm: even steps of :func:`snake_2`, and both
    row steps use the *same* transposition parity in odd and even rows.

    1. odd rows: odd bubble step; even rows: odd reverse-bubble step;
    3. odd rows: even bubble step; even rows: even reverse-bubble step.
    """
    return Schedule(
        name="snake_3",
        steps=(
            Step(row_odd_bubble("odd"), row_odd_reverse("even")),
            Step(col_odd_bubble("odd"), col_even_bubble("even")),
            Step(row_even_bubble("odd"), row_even_reverse("even")),
            Step(col_even_bubble("odd"), col_odd_bubble("even")),
        ),
        order="snake",
    )


ALGORITHMS: dict[str, Callable[[], Schedule]] = {
    "row_major_row_first": row_major_row_first,
    "row_major_col_first": row_major_col_first,
    "snake_1": snake_1,
    "snake_2": snake_2,
    "snake_3": snake_3,
}

ALGORITHM_NAMES: tuple[str, ...] = tuple(ALGORITHMS)
ROW_MAJOR_NAMES: tuple[str, ...] = ("row_major_row_first", "row_major_col_first")
SNAKE_NAMES: tuple[str, ...] = ("snake_1", "snake_2", "snake_3")


def get_algorithm(name: str) -> Schedule:
    """Look up an algorithm schedule by registry name."""
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise UnsupportedMeshError(
            f"unknown algorithm {name!r}; known: {', '.join(ALGORITHM_NAMES)}"
        ) from None
