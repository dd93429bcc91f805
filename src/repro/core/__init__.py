"""Core library: the five 2-D bubble sorting algorithms and their executors.

Public surface:

* :mod:`repro.core.algorithms` — the five schedules + registry;
* :mod:`repro.core.schedule` — the comparator IR;
* :mod:`repro.core.reference` — pure-Python oracle;
* :mod:`repro.core.orders` — row-major / snakelike target orders on any
  ``rows x cols`` mesh;
* :mod:`repro.core.runner` — high-level ``sort_grid`` entry point.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ALGORITHM_NAMES": "repro.core.algorithms",
    "ALGORITHMS": "repro.core.algorithms",
    "ROW_MAJOR_NAMES": "repro.core.algorithms",
    "SNAKE_NAMES": "repro.core.algorithms",
    "get_algorithm": "repro.core.algorithms",
    "is_sorted_grid": "repro.core.orders",
    "rank_grid": "repro.core.orders",
    "target_grid": "repro.core.orders",
    "describe_algorithm": "repro.core.runner",
    "sort_grid": "repro.core.runner",
    "sort_steps": "repro.core.runner",
    "trace": "repro.core.runner",
    "Schedule": "repro.core.schedule",
    "Step": "repro.core.schedule",
    "LineOp": "repro.core.schedule",
    "WrapOp": "repro.core.schedule",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
