"""1-D odd-even transposition sort substrate (paper Section 1).

The sorter runs as the registry family ``"odd_even"`` on a ``1 × N`` mesh;
this package holds its one-step spec, worst-case input and Section 1 bounds.
"""

from repro.linear.analysis import (
    average_lower_order,
    average_lower_smallest_element,
    expected_min_displacement,
    worst_case_upper,
)
from repro.linear.odd_even import transposition_step, worst_case_input

__all__ = [
    "average_lower_order",
    "average_lower_smallest_element",
    "expected_min_displacement",
    "worst_case_upper",
    "transposition_step",
    "worst_case_input",
]
