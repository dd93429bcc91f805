"""Deprecation shims must warn AND stay bit-identical to the legacy code.

Each migrated entry point (``repro.baselines.shearsort``,
``repro.baselines.no_wrap``, ``repro.linear.odd_even``) is now a thin shim
over the registry.  These tests pin both halves of that contract: the shim
emits a :class:`DeprecationWarning`, and its outputs equal the historical
implementation bit for bit — for the linear sorter, against a verbatim
copy of the pre-registry pure-NumPy loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StepLimitExceeded
from repro.linear.odd_even import (
    LinearSortOutcome,
    odd_even_sort_steps,
    sort_linear,
    transposition_step,
    worst_case_input,
)
from repro.schedules import (
    build_odd_even,
    build_row_major_no_wrap,
    build_shearsort,
    shearsort_step_count,
)


# ---------------------------------------------------------------------------
# The historical pure-NumPy odd-even loop, copied verbatim from the
# pre-registry implementation as the bit-identity oracle.
# ---------------------------------------------------------------------------


def _legacy_sort_linear(array, *, direction=1, max_steps=None, raise_on_cap=False):
    work = np.array(array, copy=True)
    n = work.shape[-1]
    if max_steps is None:
        max_steps = n + 2
    target = np.sort(work, axis=-1)
    if direction == -1:
        target = target[..., ::-1]

    batch_shape = work.shape[:-1]
    steps = np.full(batch_shape, -1, dtype=np.int64)
    done = np.all(work == target, axis=-1)
    steps = np.where(done, 0, steps)

    t = 0
    while t < max_steps and not np.all(done):
        t += 1
        transposition_step(work, t, direction=direction)
        now = np.all(work == target, axis=-1)
        newly = now & ~done
        if np.any(newly):
            steps = np.where(newly, t, steps)
            done = done | now

    completed = np.asarray(done)
    if raise_on_cap and not np.all(completed):
        raise StepLimitExceeded(max_steps, int(np.sum(~completed)))
    return LinearSortOutcome(
        steps=np.asarray(steps), completed=completed, final=work, max_steps=max_steps
    )


class TestLinearShim:
    def test_sort_linear_warns(self):
        with pytest.warns(DeprecationWarning, match="sort_linear"):
            sort_linear(np.array([2, 1, 0]))

    def test_odd_even_sort_steps_warns(self):
        with pytest.warns(DeprecationWarning):
            odd_even_sort_steps(np.array([2, 1, 0]))

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("batch_shape", [(), (3,), (2, 2)])
    def test_bit_identical_to_legacy_loop(self, direction, batch_shape):
        rng = np.random.default_rng((hash((direction, batch_shape)) & 0xFFFF,))
        for n in (1, 2, 3, 5, 8, 13):
            size = (*batch_shape, n)
            arr = rng.integers(-50, 50, size=size)
            new = sort_linear(arr, direction=direction)
            old = _legacy_sort_linear(arr, direction=direction)
            np.testing.assert_array_equal(new.steps, old.steps)
            np.testing.assert_array_equal(new.completed, old.completed)
            np.testing.assert_array_equal(new.final, old.final)
            assert new.max_steps == old.max_steps

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_cap_behaviour_matches(self):
        arr = worst_case_input(9)
        new = sort_linear(arr, max_steps=3)
        old = _legacy_sort_linear(arr, max_steps=3)
        assert new.steps_scalar() == old.steps_scalar() == -1
        np.testing.assert_array_equal(new.final, old.final)
        with pytest.raises(StepLimitExceeded):
            sort_linear(arr, max_steps=3, raise_on_cap=True)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_already_sorted_records_zero_steps(self):
        out = sort_linear(np.arange(6))
        assert out.steps_scalar() == 0
        assert bool(np.all(out.completed))

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_worst_case_needs_n_minus_one(self):
        n = 8
        assert odd_even_sort_steps(worst_case_input(n)) >= n - 1

    def test_registry_cycle_equals_transposition_step(self):
        """The odd_even family's 2-step cycle IS transposition_step."""
        from repro.backends import iter_run

        rng = np.random.default_rng(5)
        arr = rng.permutation(10)
        mirror = arr.copy()
        for t, snap in iter_run("vectorized", build_odd_even(), arr.reshape(1, 10), 6):
            transposition_step(mirror, t)
            np.testing.assert_array_equal(np.asarray(snap).reshape(-1), mirror)


class TestBaselineShims:
    def test_shearsort_warns_and_matches_registry(self):
        from repro.baselines.shearsort import shearsort

        with pytest.warns(DeprecationWarning, match="shearsort"):
            legacy = shearsort(6)
        assert legacy == build_shearsort(side=6)
        assert legacy.name == "shearsort[side=6]"
        assert len(legacy.steps) == shearsort_step_count(6)

    def test_no_wrap_warns_and_matches_registry(self):
        from repro.baselines.no_wrap import row_major_no_wrap

        with pytest.warns(DeprecationWarning, match="row_major_no_wrap"):
            legacy = row_major_no_wrap()
        assert legacy == build_row_major_no_wrap()

    def test_phase_helpers_stay_warning_free(self):
        import warnings

        from repro.baselines.shearsort import shearsort_phases, shearsort_step_count

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shearsort_step_count(8) == (2 * shearsort_phases(8) - 1) * 8

    def test_adversary_helper_stays_warning_free(self):
        import warnings

        from repro.baselines.no_wrap import smallest_column_adversary

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = smallest_column_adversary(6)
        assert grid.shape == (6, 6)
