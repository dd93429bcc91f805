"""``repro.schedules`` — the schedule-family registry.

Importing this package registers the built-in families:

* the paper's five algorithms (``row_major_row_first``,
  ``row_major_col_first``, ``snake_1``, ``snake_2``, ``snake_3``);
* the baselines — ``shearsort`` (sided) and the deliberately broken
  ``row_major_no_wrap`` (pathological: excluded from sweeps by default),
  with :func:`smallest_column_adversary`, the input it never sorts;
* ``odd_even`` — the 1-D odd-even transposition sort on a linear topology;
* ``random_network`` — seeded uniform random adjacent-comparator networks.

See :mod:`repro.schedules.registry` for the resolution model and
``docs/EXTENDING.md`` for registering your own family.

This package imports its submodules eagerly (no :mod:`repro._lazy`
exports): the registration loop at the bottom needs every family list
when the package loads, so that :func:`resolve` finds a built-in family
by name without any other import.
"""

from __future__ import annotations

from repro.schedules.baselines import (
    BASELINE_FAMILIES,
    build_row_major_no_wrap,
    build_shearsort,
    shearsort_phases,
    shearsort_step_count,
    smallest_column_adversary,
)
from repro.schedules.linear import LINEAR_FAMILIES, build_odd_even
from repro.schedules.paper import PAPER_FAMILIES
from repro.schedules.random_networks import (
    RANDOM_NETWORK_FAMILIES,
    build_random_network,
)
from repro.schedules.registry import (
    TOPOLOGIES,
    ScheduleFamily,
    available_families,
    build_schedule,
    family_names,
    get_family,
    mesh_shape,
    parse_spec,
    register_family,
    resolve,
    spec_name,
    topology_of,
)

__all__ = [
    "TOPOLOGIES",
    "ScheduleFamily",
    "register_family",
    "get_family",
    "available_families",
    "family_names",
    "parse_spec",
    "spec_name",
    "build_schedule",
    "resolve",
    "topology_of",
    "mesh_shape",
    "build_shearsort",
    "build_row_major_no_wrap",
    "build_odd_even",
    "build_random_network",
    "shearsort_phases",
    "shearsort_step_count",
    "smallest_column_adversary",
]

for _family in (
    *PAPER_FAMILIES,
    *BASELINE_FAMILIES,
    *LINEAR_FAMILIES,
    *RANDOM_NETWORK_FAMILIES,
):
    register_family(_family)
del _family
