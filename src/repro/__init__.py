"""repro — reproduction of Savari's five two-dimensional bubble sorting algorithms.

This package implements, end to end, the system studied in

    S. A. Savari, "Average Case Analysis of Five Two-Dimensional Bubble
    Sorting Algorithms", SPAA 1993.

Subpackages
-----------
``repro.core``
    The five mesh bubble-sort algorithms, their comparator-schedule IR, and
    vectorized/reference executors.
``repro.linear``
    The 1-D odd-even transposition step (forward and reverse) and its bounds.
``repro.mesh``
    Processor-level mesh-of-processors simulator with wrap-around wires.
``repro.zeroone``
    The 0-1 analysis machinery: threshold matrices, column weights, the
    Z/Y potential trackers, and programmatic lemma checks.
``repro.theory``
    Exact (Fraction-valued) moments, variances, and per-theorem bounds.
``repro.schedules``
    The schedule-family registry: the five algorithms, shearsort, the
    broken no-wrap variant and its adversary, the 1-D odd-even sort and
    seeded random networks.
``repro.experiments``
    Seeded Monte-Carlo harness reproducing every theorem of the paper.
``repro.viz``
    ASCII rendering of grids, traces, and series.

This package and most subpackages export their names lazily
(:mod:`repro._lazy`): ``import repro`` loads no subpackage, and an exported
name loads its defining module on first use.
"""

from repro._lazy import lazy_exports
from repro._version import __version__

_EXPORTS = {
    "ALGORITHM_NAMES": "repro.core.algorithms",
    "get_algorithm": "repro.core.algorithms",
    "sort_grid": "repro.core.runner",
    "ReproError": "repro.errors",
    "random_permutation_grid": "repro.randomness",
    "random_zero_one_grid": "repro.randomness",
}
__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
