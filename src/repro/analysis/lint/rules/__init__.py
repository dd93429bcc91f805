"""Built-in ``RPR1xx`` lint rules, grouped by theme.

Importing this package registers every built-in rule:

* :mod:`~repro.analysis.lint.rules.purity` — RPR101 (RNG construction
  outside :mod:`repro.randomness`), RPR108 (global seeding);
* :mod:`~repro.analysis.lint.rules.taxonomy` — RPR102 (bare builtin
  exceptions raised from the facade);
* :mod:`~repro.analysis.lint.rules.observability` — RPR103 (observer-event
  construction outside the driver), RPR104 (ad-hoc wall-clock reads);
* :mod:`~repro.analysis.lint.rules.hygiene` — RPR105 (mutable default
  arguments), RPR107 (silent broad excepts);
* :mod:`~repro.analysis.lint.rules.testing` — RPR106 (float equality in
  tests).
"""

from __future__ import annotations

from repro.analysis.lint.rules import (  # noqa: F401  (import registers the rules)
    hygiene,
    observability,
    purity,
    taxonomy,
    testing,
)
